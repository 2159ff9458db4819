"""Error types shared across the kernel."""

import sys


class InvalidInput(ValueError):
    """An operation was called outside its stated domain."""


class ParseError(InvalidInput):
    """Malformed text input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalError(RuntimeError):
    """An internally guaranteed property failed; indicates a kernel bug."""


def _digit_limit() -> int:
    """The interpreter's int<->str digit limit (`sys.set_int_max_str_digits`),
    0 where it has none or it is lifted."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _too_many_digits(what: str) -> InvalidInput:
    """The error for a number past the interpreter's int<->str digit limit,
    which `str` and `int` signal with a bare ValueError."""
    return InvalidInput(f"{what} of more than the interpreter's limit of {_digit_limit()} digits")
