"""Text grammar for quaternions and polynomials, shared with the CLI.

Quaternion literals look like `1 - 2/3i + j - k`; polynomials like
`(1+i)x^2 - 2/3jx + k` with the variable `x`, or `x1x2 - k` in several
variables.  Digits are ASCII 0-9.  Whitespace separates tokens and is
allowed around the `/` of a rational, so `1 2` is 2 while `12` is twelve,
and `x 2` is 2x1 while `x2` is the second variable.  Adjacent factors
multiply in the order written, since coefficients do not commute; powers
such as `(x-i)^2` and nested parentheses are allowed.

The text is scanned once, by one `findall`, into tokens that keep no
position: a rational, unit, variable or `)` with its `^n`, or an operator.
Only a ParseError scans the text again, with `finditer`, for the first
lexical error in the text, which wins over any other error, and then for
the position of its own token.  Each sum is read in one loop.  Rationals
and variables are central, so a product of rationals, units, variables and
constant parentheses such as `(1/2 - i)` is one coefficient, four integer
numerators over one denominator, times one monomial; each monomial's
coefficient is summed the same way and reduced once.  Only a parenthesized
factor that is not constant, as in `(x-i)^2` or `(x-i)j`, is multiplied as
a polynomial, and its power is taken by repeated squaring.

Powers are bounded (`errors.BOUNDS`) before they are taken, as a
ParseError at the exponent: in bits (`2^100000`, `(2x)^100000`), and for
a parenthesized factor of several terms in degree (`(x - i)^500`) and
terms (`(x1 + x2 + x3)^43`); a power of a unit, a variable, -1 or a
one-term factor such as `(jx)` cannot grow and is not bounded.  A
product of two parenthesized factors is bounded in terms and in
coefficient products, a ParseError at the second `(`:
`(x - i)^250(x - i)^250` is read and `(x - i)^500(x - i)^499` is not.
`parse_upoly` keeps the dense bound.
A numeral longer than the interpreter's int<->str digit limit, where one
is in force (`sys.set_int_max_str_digits`), is a ParseError at its digits.

Printing inverts parsing exactly: print(parse(t)) reparses to an equal
value.
"""

from __future__ import annotations

import re
from itertools import islice
from math import gcd
from operator import add

from .errors import BOUNDS, InvalidInput, ParseError, _digit_limit, refusal
from .mpoly import MPoly, _degree, _max_terms, _mpoly, _power_terms, _to_upoly
from .scalars import Quat, ZERO, _growth, _qmul, _quat, _reduced
from .upoly import UPoly

# One token after optional whitespace, as the groups (numerator,
# denominator, name, exponent numerator, exponent denominator, other): a
# rational `num` or `num/den` or a name (unit, `x`, `x<index>` or `)`), with
# its optional `^n` or `^n/d`; any other character; or the end of the text,
# every group empty, which `findall` returns last, so trailing whitespace
# is read once.
_TOKEN = re.compile(
    r"\s*(?:(?:([0-9]+)(?:\s*/\s*([0-9]+))?|([ijk)]|x[0-9]*))"
    r"(?:\s*\^\s*([0-9]+)(?:\s*/\s*([0-9]+))?)?|(\S)|\Z)"
)
_END = ("",) * 6
# One lexeme after optional whitespace, as the groups (denominator, index,
# other): the digits after the `/` of a rational, which may be missing; the
# index digits of a variable; any character outside the grammar.
_LEXEME = re.compile(r"\s*(?:[0-9]+(?:\s*/\s*([0-9]*))?|x([0-9]*)|[-+*^()ijk]|(\S)|\Z)")
# The powers u^0..u^3 of each unit, as integer 4-tuples.
_UNIT_POWERS = {
    "i": ((1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, -1, 0, 0)),
    "j": ((1, 0, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 0), (0, 0, -1, 0)),
    "k": ((1, 0, 0, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, 0, 0, -1)),
}


def _fail(text: str, message: str, index: int, group: int = 0):
    """Raise the first lexical error of text, in text order, and else the
    ParseError message at token index, at its exponent when group is 4."""
    for m in _LEXEME.finditer(text):
        den, var, other = m.groups()
        if den == "":
            raise ParseError("expected denominator digits after '/'", m.start(1))
        if den and not den.strip("0"):
            raise ParseError("zero denominator", m.start(1))
        if var and not var.strip("0"):
            raise ParseError("variable indices start at x1", m.start(2) - 1)
        if other:
            raise ParseError(f"unexpected character {other!r}", m.start(3))
    m = next(islice(_TOKEN.finditer(text), index, None))
    starts = [m.start(g) for g in ((group,) if group else (1, 3, 6)) if m.start(g) >= 0]
    raise ParseError(message, starts[0] if starts else len(text))


def _exponent(text: str, tokens: list, at: int) -> int:
    """The exponent written on the factor that tokens[at - 1] ends."""
    _, _, _, num, den, _ = tokens[at - 1]
    n = int(num)
    if not den:
        return n
    d = int(den)
    if not d or n % d:
        _fail(text, "exponent must be a nonnegative integer", at - 1, 4)
    return n // d


def _bound_power(text: str, at: int, n: int, base: dict) -> None:
    """A ParseError at the exponent of tokens[at - 1] when n times the bits
    one more factor can add to a coefficient of base, {exponents:
    coefficient}, passes its bound in bits, or when base has several terms
    and the power's degree or terms pass theirs (`errors.BOUNDS`); a
    coefficient 0, -1, 1 or a unit adds none."""
    growth = max(map(_growth, base.values()), default=0)
    if growth and n > BOUNDS["power_bits"][0] / growth:
        _fail(text, refusal("power_bits", "text"), at - 1, 4)
    if len(base) > 1:
        degree = n * max(map(sum, base))
        if degree > BOUNDS["power_degree"][0]:
            _fail(text, refusal("power_degree", degree=degree), at - 1, 4)
        terms = _power_terms(base, n)
        if terms > BOUNDS["terms"][0]:
            _fail(text, refusal("terms", "power", terms=terms), at - 1, 4)


def _sum(text: str, tokens: list, at: int, nvars: int, depth: int) -> tuple[dict, int]:
    """The sum that starts at tokens[at], as {exponents: (a, b, c, d, m)},
    each coefficient as unreduced integer numerators over a denominator, and
    the index of the token after it.  A term is r/rd * x^alpha * poly * q:
    integers r and rd, where rd takes every denominator since rationals are
    central, an integer 4-tuple q (None for 1), and poly, the product up to
    the last non-constant parenthesized factor (None when there is none)."""
    acc: dict = {}
    sign = tokens[at][5]
    r = -1 if sign == "-" else 1
    if sign == "+" or sign == "-":
        at += 1
    while True:
        rd = 1
        alpha = [0] * nvars
        q = poly = None
        while True:
            num, den, name, power, _, op = tokens[at]
            at += 1
            if num:
                d = int(den) if den else 1
                if not d:
                    _fail(text, "zero denominator", at - 1)
                if not power:
                    r *= int(num)
                    rd *= d
                else:
                    n = _exponent(text, tokens, at)
                    a = int(num)
                    g = gcd(a, d)
                    a, d = a // g, d // g
                    _bound_power(text, at, n, {(): _reduced(a, 0, 0, 0, d)})
                    r *= a**n
                    rd *= d**n
            elif name and name != ")":
                if name[0] == "x":
                    index = int(name[1:]) - 1 if len(name) > 1 else 0
                    if not 0 <= index < nvars:
                        _fail(text, f"variable {name} outside the {nvars}-variable ring", at - 1)
                    alpha[index] += _exponent(text, tokens, at) if power else 1
                else:
                    u = _UNIT_POWERS[name][_exponent(text, tokens, at) % 4 if power else 1]
                    q = u if q is None else _qmul(q, u)
            elif op != "(":
                _fail(text, f"unexpected {name or op!r}" if name or op else "unexpected end of input", at - 1)
            else:
                if depth == BOUNDS["nesting"][0]:
                    _fail(text, refusal("nesting"), at - 1)
                opening = at - 1
                inner, at = _sum(text, tokens, at, nvars, depth + 1)
                _, _, name, power, _, _ = tokens[at]
                if name != ")":
                    _fail(text, "expected ')'", at)
                at += 1
                origin = (0,) * nvars
                if not power and tokens[at][5] != "^" and inner.keys() <= {origin}:
                    a, b, c, d, m = inner.get(origin) or (0, 0, 0, 0, 1)
                    q = (a, b, c, d) if q is None else _qmul(q, (a, b, c, d))
                    rd *= m
                else:
                    poly, q, rd = _factor(text, tokens, at, opening, _coefficients(inner), nvars, poly, q, rd)
            num, _, name, _, _, op = tokens[at]
            if op == "*":
                at += 1
            elif op == "^" and not power:
                _fail(text, "exponent must be a nonnegative integer", at + 1)
            elif not (num or op == "(" or name and name != ")"):
                break
        parts = [(tuple(alpha), q, rd)] if poly is None else [
            (tuple(map(add, e, alpha)), c._n if q is None else _qmul(c._n, q), c._d * rd) for e, c in poly.terms.items()
        ]
        for e, v, m in parts:
            a, b, c, d = (r, 0, 0, 0) if v is None else (v[0] * r, v[1] * r, v[2] * r, v[3] * r)
            s = acc.get(e)
            if s is None:
                acc[e] = (a, b, c, d, m)
            else:
                p = s[4]
                acc[e] = (s[0] * m + a * p, s[1] * m + b * p, s[2] * m + c * p, s[3] * m + d * p, p * m)
        sign = tokens[at][5]
        if sign != "+" and sign != "-":
            return acc, at
        r = -1 if sign == "-" else 1
        at += 1


def _factor(text: str, tokens: list, at: int, opening: int, inner: dict, nvars: int, poly, q, rd: int) -> tuple:
    """(poly, q, rd) of a term times the parenthesized factor from
    tokens[opening] to tokens[at - 1], the `)` with its exponent, of value
    inner, {exponents: coefficient}, before the power: a constant
    multiplies q, and any other factor is a polynomial with q on its left,
    its product with poly bounded, at the `(`, before it is taken."""
    n = 1
    if tokens[at - 1][3]:
        n = _exponent(text, tokens, at)
        _bound_power(text, at, n, inner)
    elif tokens[at][5] == "^":
        _fail(text, "exponent must be a nonnegative integer", at + 1)
    origin = (0,) * nvars
    if inner.keys() <= {origin}:
        c = inner.get(origin, ZERO) ** n
        return poly, c._n if q is None else _qmul(q, c._n), rd * c._d
    inner = _mpoly(nvars, inner).pow(n)
    if q is not None:
        inner = inner.scale_left(_quat(q, 1))
    if poly is None:
        return inner, None, rd
    products = len(poly.terms) * len(inner.terms)
    terms = _max_terms(products, _degree(poly) + _degree(inner), [*poly.terms, *inner.terms])
    if terms > BOUNDS["terms"][0]:
        _fail(text, refusal("terms", "product", terms=terms), opening)
    if products > BOUNDS["products"][0]:
        _fail(text, refusal("products", products=products), opening)
    return poly * inner, None, rd


def _coefficients(acc: dict) -> dict:
    """The sums of acc as reduced coefficients, the zero ones dropped."""
    return {e: c for e, s in acc.items() if (c := _reduced(*s))}


def _terms(text: str, nvars: int) -> dict:
    """The {exponents: coefficient} of the polynomial text in nvars
    variables, with no zero coefficients."""
    if nvars < 1:
        raise ParseError("need at least one variable", 0)
    tokens = _TOKEN.findall(text)
    try:
        acc, at = _sum(text, tokens, 0, nvars, 0)
    except InvalidInput:
        raise
    except ValueError:
        # int() of a numeral past the interpreter's digit limit, reached in
        # text order, so the first such numeral is the one to name.
        limit = _digit_limit()
        if long := limit and re.search(f"[0-9]{{{limit + 1}}}", text):
            raise ParseError(f"numeral of more than the interpreter's limit of {limit} digits", long.start()) from None
        raise
    if tokens[at] != _END:
        _, _, name, _, _, op = tokens[at]
        _fail(text, f"unexpected trailing {name or op!r}", at)
    return _coefficients(acc)


def parse_mpoly(text: str, nvars: int) -> MPoly:
    """Parse a polynomial in variables x1..xn (plain `x` means x1)."""
    return _mpoly(nvars, _terms(text, nvars))


def parse_upoly(text: str) -> UPoly:
    """Parse a one-variable polynomial over the quaternions."""
    return _to_upoly(_mpoly(1, _terms(text, 1)))


def parse_quat(text: str) -> Quat:
    """Parse a quaternion literal such as `1 - 2/3i + j - k`."""
    terms = _terms(text, 1)
    if terms.keys() <= {(0,)}:
        return terms.get((0,), ZERO)
    # Checked on the value, not the tokens, so variables that cancel
    # (`x - x`, `x^0`) still give a constant.
    index = next(t for t, token in enumerate(_TOKEN.findall(text)) if token[2][:1] == "x")
    _fail(text, "expected a constant quaternion, found a variable", index)


def parse_quat_list(text: str) -> list[Quat]:
    """Comma-separated quaternion literals."""
    return [parse_quat(part) for part in text.split(",")]
