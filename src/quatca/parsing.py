"""Text grammar for quaternions and polynomials, shared with the CLI.

Quaternion literals look like `1 - 2/3i + j - k`; polynomials like
`(1+i)x^2 - 2/3jx + k` with the variable `x`, or `x1x2 - k` in several
variables.  Digits are ASCII 0-9.  Whitespace separates tokens and is
allowed around the `/` of a rational, so `1 2` is the product 2 while `12`
is twelve, and `x 2` is 2x1 while `x2` is the second variable.  Adjacent
factors multiply in the order written, which matters because coefficients
do not commute; general parenthesized subexpressions and powers such as
`(x-i)^2` are allowed, with parentheses nested at most 100 deep.

A sum collects straight into one {exponents: coefficient} dict.  Rationals
and variables are central, so a product of rationals, units, variables and
constant parentheses such as `(1/2 - i)` is one coefficient times one
monomial: the rationals multiply, the exponents add, and the units and
constants multiply in the order written.  Only a parenthesized factor that
is not constant, as in `(x-i)^2` or `(x-i)j`, is multiplied as a polynomial,
between the factors to its left and those to its right.  A power of a
rational, unit or constant is a scalar power, and that of a polynomial is
taken by repeated squaring.

Powers are bounded before they are taken, and a power past a bound is a
ParseError at its exponent: the result may have at most 100,000 bits
(`2^100000`, `(2x)^100000`), and the power of a parenthesized factor of
several terms at most degree 500 (`(x - i)^500`) and at most 1,000 terms
(`(x1 + x2 + x3)^43`).  Powers that cannot grow, of a unit, a variable,
-1 or a one-term factor such as `(jx)`, are not bounded.  The product of
two parenthesized factors of t1 and t2 terms may have at most 1,000 terms
too and may take at most 65,536 coefficient products t1*t2, a ParseError
at the second factor's `(`, so `(x - i)^250(x - i)^250` is read and
`(x - i)^500(x - i)^499` is not.  `parse_upoly` then keeps the degree
within the dense bound of `mpoly`, 1,000,000.

Printing inverts parsing exactly: print(parse(t)) reparses to an equal
value.
"""

from __future__ import annotations

import re
from math import comb, gcd
from operator import add

from .errors import ParseError
from .mpoly import MPoly, _degree, _mpoly, _to_upoly
from .scalars import I, J, K, Quat, ZERO, _growth, _reduced
from .upoly import UPoly

_UNITS = {"i": I, "j": J, "k": K}
_MAX_NESTING = 100
# Bounds on a power written in the text, so that a short input cannot ask
# for a value too large to build.  Quaternion powers cost about the square
# of their size: `(1+2i)^100000` (0.12 million bits) takes 0.15 s and
# `(1+2i)^1000000` 10.4 s, so a power may have 100,000 bits; the largest
# accepted powers of `1+2i` and `3/5+4/5i` take 0.15 s.  A power of a sum
# of terms is taken by repeated squaring of a polynomial: `(x - i)^500`
# takes 0.53 s and `(x - i)^1000` 2.7 s.  In several variables the terms
# grow as a binomial in the exponent, so the power of a sum of t terms is
# also bounded by its number of terms, at most C(n + t - 1, t - 1) and at
# most the number of monomials up to its degree in the variables it uses:
# `(x1 + x2 + x3)^43` (990 terms) takes 0.25 s, while `(x1 + x2 + x3)^60`
# took 1.2 s and `^160` 58.7 s.  In one variable the degree bound is the
# tighter one.  A product of two such factors is bounded the same way, by
# at most t1 * t2 terms and the monomials up to the summed degree:
# `(x1+x2+x3)^43*(x1+x2+x3)^43` took 4.6 s and
# `(x1+x2+x3+x4)^16(x1+x2+x3+x4)^16` 5.5 s.  Its work is t1 * t2
# coefficient products whatever the terms of the result: the largest
# product inside `(x - i)^500` makes 62,965, `(x - i)^250(x - i)^250`
# (63,001) takes 0.54 s, and `(x - i)^500(x - i)^499` (250,500) took 2.3 s
# on a shared 2-core host, so a product may make at most 65,536.
_MAX_POWER_BITS = 100_000
_MAX_POWER_DEGREE = 500
_MAX_TERMS = 1_000
_MAX_PRODUCTS = 65_536

# One token after optional whitespace: a rational `num` or `num/den`, a
# unit, a variable `x` or `x<index>`, an operator, or any other character.
_TOKEN = re.compile(r"\s*(([0-9]+)(?:\s*/\s*([0-9]*))?|[ijk]|x([0-9]*)|[-+*^()]|\S)")


def _tokenize(text: str) -> list[tuple]:
    """Tokens `(kind, text, pos, value)`, kind one of "rat", "unit", "var",
    "op" and a closing "end"; a rational's value is its numerator and
    positive denominator in lowest terms, and a variable's its 0-based
    index."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, num, den, index = m.groups()
        pos = m.start(1)
        if num is not None:
            if den is None:
                value = int(num), 1
            elif not den:
                raise ParseError("expected denominator digits after '/'", m.start(3))
            elif not int(den):
                raise ParseError("zero denominator", m.start(3))
            else:
                n, d = int(num), int(den)
                g = gcd(n, d)
                value = n // g, d // g
            tokens.append(("rat", tok, pos, value))
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
        self.origin = (0,) * nvars

    def peek(self) -> tuple:
        return self.tokens[self.at]

    def take(self) -> tuple:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    # Only operator tokens have the texts + - * ^ ( ), so a text names one.

    def parse_expression(self) -> MPoly:
        terms: dict = {}
        sign = self.peek()[1]
        if sign in ("+", "-"):
            self.take()
        while True:
            self.parse_term(terms, -1 if sign == "-" else 1)
            sign = self.peek()[1]
            if sign not in ("+", "-"):
                return _mpoly(self.nvars, terms)
            self.take()

    def parse_term(self, terms: dict, r: int) -> None:
        """Add the product of factors that comes next, times r, into terms.

        Rationals and variables are central, so the product is
        r * x^alpha * poly * q: `poly` is the product in order of everything
        up to the last non-constant parenthesized factor (None when there is
        none) and `q` that of the units and constant parentheses after it.
        r is kept as an integer numerator over a denominator, not reduced
        until the coefficient is built."""
        alpha = [0] * self.nvars
        rd = 1
        q = poly = None
        while True:
            kind, text, pos, value = self.take()
            if kind == "rat":
                n = self.exponent(value)
                r *= value[0] ** n
                rd *= value[1] ** n
            elif kind == "unit":
                n = self.exponent()
                u = _UNITS[text] if n == 1 else _UNITS[text] ** n
                q = u if q is None else q * u
            elif kind == "var":
                if not value < self.nvars:
                    raise ParseError(f"variable {text} outside the {self.nvars}-variable ring", pos)
                alpha[value] += self.exponent()
            elif text == "(":
                if self.depth == _MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
                self.depth += 1
                inner = self.parse_expression()
                self.depth -= 1
                _, text, close, _ = self.take()
                if text != ")":
                    raise ParseError("expected ')'", close)
                n = self.exponent(inner)
                if inner.terms.keys() <= {self.origin}:
                    c = inner.terms.get(self.origin, ZERO)
                    c = c if n == 1 else c**n
                    q = c if q is None else q * c
                else:
                    inner = inner.pow(n)
                    if q is not None:
                        inner, q = inner.scale_left(q), None
                    if poly is None:
                        poly = inner
                    else:
                        products = len(poly.terms) * len(inner.terms)
                        _bound_terms(
                            "product", products, _degree(poly) + _degree(inner),
                            [*poly.terms, *inner.terms], pos,
                        )
                        if products > _MAX_PRODUCTS:
                            raise ParseError(
                                f"product of {products} coefficient products, above the bound of {_MAX_PRODUCTS}",
                                pos,
                            )
                        poly = poly * inner
            else:
                raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)
            kind, text, _, _ = self.peek()
            if text == "*":
                self.take()
            elif kind in ("op", "end") and text != "(":
                break
        if q is None:
            c = _reduced(r, 0, 0, 0, rd)
        elif r == rd:
            c = q
        else:
            (n0, n1, n2, n3), m = q._n, q._d
            c = _reduced(n0 * r, n1 * r, n2 * r, n3 * r, m * rd)
        if poly is None:
            pairs = [(tuple(alpha), c)]
        else:
            pairs = [(tuple(map(add, e, alpha)), pc * c) for e, pc in poly.terms.items()]
        for e, term in pairs:
            terms[e] = terms[e] + term if e in terms else term

    def exponent(self, base: MPoly | tuple[int, int] | None = None) -> int:
        """The `^n` after a factor, or 1 when there is none.

        A base that can grow under the power, a rational (numerator,
        denominator) or a parenthesized
        polynomial, is checked against the size bounds before the power is
        taken: a ParseError at the exponent when n times the bits one more
        factor can add to a coefficient exceeds _MAX_POWER_BITS, or when
        the base has several terms and n times its degree exceeds
        _MAX_POWER_DEGREE or the power may have more than _MAX_TERMS
        terms.  Units, variables and one-term bases whose
        coefficient is 0, -1, 1 or a signed unit, such as `(jx)`, add no
        bits and stay unbounded."""
        if self.peek()[1] != "^":
            return 1
        self.take()
        kind, _, pos, value = self.take()
        if kind != "rat" or value[1] != 1:
            raise ParseError("exponent must be a nonnegative integer", pos)
        n = value[0]
        if base is None:
            return n
        coeffs = base.terms.values() if isinstance(base, MPoly) else [_reduced(base[0], 0, 0, 0, base[1])]
        growth = max(map(_growth, coeffs), default=0)
        if growth and n > _MAX_POWER_BITS / growth:
            raise ParseError(f"power of more than the bound of {_MAX_POWER_BITS} bits", pos)
        if isinstance(base, MPoly) and len(base.terms) > 1:
            degree = n * _degree(base)
            if degree > _MAX_POWER_DEGREE:
                raise ParseError(f"power of degree {degree}, above the bound of {_MAX_POWER_DEGREE}", pos)
            t = len(base.terms)
            _bound_terms("power", comb(n + t - 1, t - 1), degree, base.terms, pos)
        return n


def _bound_terms(what: str, count: int, degree: int, exponents, pos: int) -> None:
    """A ParseError at pos when the power or product may have more than
    _MAX_TERMS terms: at most count, and at most the number of monomials up
    to degree in the variables that the exponent vectors use."""
    used = sum(map(any, zip(*exponents)))
    terms = min(count, comb(degree + used, used))
    if terms > _MAX_TERMS:
        raise ParseError(f"{what} of up to {terms} terms, above the bound of {_MAX_TERMS}", pos)


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
