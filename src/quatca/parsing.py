"""Text grammar for quaternions and polynomials, shared with the CLI.

Quaternion literals look like `1 - 2/3i + j - k`; polynomials like
`(1+i)x^2 - 2/3jx + k` with the variable `x`, or `x1x2 - k` in several
variables.  Digits are ASCII 0-9.  Whitespace separates tokens and is
allowed around the `/` of a rational, so `1 2` is the product 2 while `12`
is twelve, and `x 2` is 2x1 while `x2` is the second variable.  Adjacent
factors multiply in the order written, which matters because coefficients
do not commute; general parenthesized subexpressions and powers such as
`(x-i)^2` are allowed, with parentheses nested at most 100 deep.

Printing inverts parsing exactly: print(parse(t)) reparses to an equal
value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .mpoly import MPoly, _to_upoly
from .scalars import I, J, K, Quat
from .upoly import UPoly

_UNITS = {"i": I, "j": J, "k": K}
_MAX_NESTING = 100

# One token after optional whitespace: a rational `num` or `num/den`, a
# unit, a variable `x` or `x<index>`, an operator, or any other character.
_TOKEN = re.compile(r"\s*(([0-9]+)(?:\s*/\s*([0-9]*))?|[ijk]|x([0-9]*)|[-+*^()]|\S)")


def _tokenize(text: str) -> list[tuple]:
    """Tokens `(kind, text, pos, value)`, kind one of "rat", "unit", "var",
    "op" and a closing "end"; a rational's value is a `Fraction` and a
    variable's its 0-based index."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, num, den, index = m.group(1, 2, 3, 4)
        pos = m.start(1)
        if num is not None:
            if den is None:
                den = "1"
            elif not den:
                raise ParseError("expected denominator digits after '/'", m.start(3))
            elif not int(den):
                raise ParseError("zero denominator", m.start(3))
            tokens.append(("rat", tok, pos, Fraction(int(num), int(den))))
        elif index is not None:
            if index and not int(index):
                raise ParseError("variable indices start at x1", pos)
            tokens.append(("var", tok, pos, int(index) - 1 if index else 0))
        elif tok in _UNITS:
            tokens.append(("unit", tok, pos, None))
        elif tok in "+-*^()":
            tokens.append(("op", tok, pos, None))
        else:
            raise ParseError(f"unexpected character {tok!r}", pos)
    tokens.append(("end", "", len(text), None))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple], nvars: int):
        self.tokens = tokens
        self.at = 0
        self.nvars = nvars
        self.depth = 0

    def peek(self) -> tuple:
        return self.tokens[self.at]

    def take(self) -> tuple:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    # Only operator tokens have the texts + - * ^ ( ), so a text names one.

    def parse_expression(self) -> MPoly:
        sign = self.peek()[1]
        if sign in ("+", "-"):
            self.take()
        result = self.parse_term()
        if sign == "-":
            result = -result
        while True:
            op = self.peek()[1]
            if op not in ("+", "-"):
                return result
            self.take()
            term = self.parse_term()
            result = result - term if op == "-" else result + term

    def parse_term(self) -> MPoly:
        result = self.parse_factor()
        while True:
            kind, text, _, _ = self.peek()
            if text == "*":
                self.take()
            elif kind in ("op", "end") and text != "(":
                return result
            result = result * self.parse_factor()

    def parse_factor(self) -> MPoly:
        base = self.parse_atom()
        if self.peek()[1] != "^":
            return base
        self.take()
        kind, _, pos, value = self.take()
        if kind != "rat" or value.denominator != 1:
            raise ParseError("exponent must be a nonnegative integer", pos)
        return base.pow(int(value))

    def parse_atom(self) -> MPoly:
        kind, text, pos, value = self.take()
        if kind == "rat":
            return MPoly.constant(Quat.scalar(value), self.nvars)
        if kind == "unit":
            return MPoly.constant(_UNITS[text], self.nvars)
        if kind == "var":
            if not value < self.nvars:
                raise ParseError(f"variable {text} outside the {self.nvars}-variable ring", pos)
            return MPoly.variable(value, self.nvars)
        if text == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expression()
            self.depth -= 1
            kind, text, pos, _ = self.take()
            if text != ")":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_mpoly(text: str, nvars: int) -> MPoly:
    """Parse a polynomial in variables x1..xn (plain `x` means x1)."""
    if nvars < 1:
        raise ParseError("need at least one variable", 0)
    parser = _Parser(_tokenize(text), nvars)
    result = parser.parse_expression()
    kind, text, pos, _ = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {text!r}", pos)
    return result


def parse_upoly(text: str) -> UPoly:
    """Parse a one-variable polynomial over the quaternions."""
    return _to_upoly(parse_mpoly(text, 1))


def parse_quat(text: str) -> Quat:
    """Parse a quaternion literal such as `1 - 2/3i + j - k`."""
    p = parse_mpoly(text, 1)
    constant = Quat.scalar(0)
    for exps, coeff in p.terms.items():
        if any(exps):
            # Checked on the value, not the tokens, so variables that
            # cancel (`x - x`, `x^0`) still give a constant.
            pos = next(pos for kind, _, pos, _ in _tokenize(text) if kind == "var")
            raise ParseError("expected a constant quaternion, found a variable", pos)
        constant = constant + coeff
    return constant


def parse_quat_list(text: str) -> list[Quat]:
    """Comma-separated quaternion literals."""
    return [parse_quat(part) for part in text.split(",")]
