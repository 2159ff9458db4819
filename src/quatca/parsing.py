"""Text grammar for quaternions and polynomials, shared with the CLI.

Quaternion literals look like `1 - 2/3i + j - k`; polynomials like
`(1+i)x^2 - 2/3jx + k` with the variable `x`, or `x1x2 - k` in several
variables.  Whitespace is insignificant.  Adjacent factors multiply in the
order written, which matters because coefficients do not commute; general
parenthesized subexpressions and powers such as `(x-i)^2` are allowed.

Printing inverts parsing exactly: print(parse(t)) reparses to an equal
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .mpoly import MPoly, _to_upoly
from .scalars import I, J, K, Quat
from .upoly import UPoly

_UNITS = {"i": I, "j": J, "k": K}


@dataclass(frozen=True)
class _Token:
    kind: str  # "rat" | "unit" | "var" | "op" | "end"
    text: str
    pos: int
    value: Fraction | int | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            num = int(text[start:pos])
            # A slash directly after a number (spaces allowed) makes a rational.
            look = pos
            while look < n and text[look].isspace():
                look += 1
            if look < n and text[look] == "/":
                look += 1
                while look < n and text[look].isspace():
                    look += 1
                dstart = look
                while look < n and text[look].isdigit():
                    look += 1
                if dstart == look:
                    raise ParseError("expected denominator digits after '/'", dstart)
                den = int(text[dstart:look])
                if den == 0:
                    raise ParseError("zero denominator", dstart)
                tokens.append(_Token("rat", text[start:look], start, Fraction(num, den)))
                pos = look
            else:
                tokens.append(_Token("rat", text[start:pos], start, Fraction(num)))
            continue
        if ch in "ijk":
            tokens.append(_Token("unit", ch, pos))
            pos += 1
            continue
        if ch == "x":
            start = pos
            pos += 1
            digits = ""
            while pos < n and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            index = int(digits) - 1 if digits else 0
            if digits and index < 0:
                raise ParseError("variable indices start at x1", start)
            tokens.append(_Token("var", text[start:pos], start, index))
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], nvars: int):
        self.tokens = tokens
        self.at = 0
        self.nvars = nvars

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect_op(self, text: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)

    def parse_expression(self) -> MPoly:
        negate = False
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            negate = tok.text == "-"
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                term = self.parse_term()
                result = result - term if tok.text == "-" else result + term
            else:
                return result

    def parse_term(self) -> MPoly:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind in ("rat", "unit", "var") or (tok.kind == "op" and tok.text == "("):
                result = result * self.parse_factor()
            elif tok.kind == "op" and tok.text == "*":
                self.take()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> MPoly:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok.kind != "rat" or not isinstance(exp_tok.value, Fraction) or exp_tok.value.denominator != 1 or exp_tok.value < 0:
                raise ParseError("exponent must be a nonnegative integer", exp_tok.pos)
            return base.pow(int(exp_tok.value))
        return base

    def parse_atom(self) -> MPoly:
        tok = self.take()
        if tok.kind == "rat":
            return MPoly.constant(Quat.scalar(tok.value), self.nvars)
        if tok.kind == "unit":
            return MPoly.constant(_UNITS[tok.text], self.nvars)
        if tok.kind == "var":
            index = tok.value
            if not 0 <= index < self.nvars:
                raise ParseError(
                    f"variable {tok.text} outside the {self.nvars}-variable ring", tok.pos
                )
            return MPoly.variable(index, self.nvars)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)


def parse_mpoly(text: str, nvars: int) -> MPoly:
    """Parse a polynomial in variables x1..xn (plain `x` means x1)."""
    if nvars < 1:
        raise ParseError("need at least one variable", 0)
    parser = _Parser(_tokenize(text), nvars)
    result = parser.parse_expression()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
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
            raise ParseError("expected a constant quaternion, found a variable", 0)
        constant = constant + coeff
    return constant


def parse_quat_list(text: str) -> list[Quat]:
    """Comma-separated quaternion literals."""
    return [parse_quat(part) for part in text.split(",")]
