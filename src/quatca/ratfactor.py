"""Arithmetic on central (rational-coefficient) polynomials: the central
content, companion and class remainders of a quaternion polynomial, and
factorization.

A central polynomial here is in one form: a primitive integer coefficient
list, highest degree first, with a positive leading coefficient ([] for
zero).  By Gauss's lemma it loses nothing: a nonzero rational polynomial
is a rational multiple of exactly one such list, and a product of
primitive lists is primitive.  `factor_central` takes that form; only the
roots and (t, n) pairs it reports are `Fraction`s.

A quaternion polynomial p reaches this module as its four coordinate rows
(`scalars._integer_rows`): integer lists of one length, highest degree
first, that are the coordinate polynomials of D*p for a positive integer
D.  Only this module reads them; `upoly` passes them on as they come.  x
is central, so the rows commute with the units, and each question
`upoly` asks of p is one on the rows, answered up to a positive scalar
that does not change it:
- the companion p * conj(p), the sum of the squares of the rows over D^2
  (`_sum_of_squares`), since the cross terms cancel;
- the central content c, the gcd over the rationals of the rows and so
  the central c of greatest degree with p = q*c (`_central_content`), by a
  primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1; Collins 1967):
  each pseudo-remainder lc(b)^k * a mod b is integral, and dividing it by
  its content keeps the coefficients small;
- with it N(q) for q = p/c, from q's rows by exact division
  (`_content_and_norm`, `_exact_quotient`);
- the remainder alpha*x + beta of p by a class quadratic, one
  pseudo-remainder per row with one multiplier for all four
  (`_class_remainder`).
`upoly.right_roots` factors c and N(q), not N(p) = c^2*N(q), so over its
calls a leftover factor of the content counts once, not squared.

Root-class extraction needs the rational roots and the monic quadratic
factors of a central polynomial.  Degree 1 and 2 take a closed form (the
discriminant and an exact rational square root).  Above degree 2, floats
propose and exact division confirms: the complex roots of the polynomial F
in the one form, with leading coefficient L, are approximated by
Aberth-Ehrlich iteration, and each near-real root and each
pair with near-real sum and product is rounded to a candidate factor over
(1/L)Z, which by Gauss's lemma holds the coefficients of every monic
rational factor of F.  A candidate counts only once it divides exactly, so
a bad float costs a trial division, never an answer.

The cofactor C that no confirmed candidate explains is proved rather than
factored where possible.  Degree <= 2 takes the closed form.  Above it, a
few small primes p try the distinct-degree stage of Cantor & Zassenhaus
(1981): if p does not divide L and C mod p is prime to x^(p^2) - x, C has
no rational factor of degree 1 or 2, since one would keep its degree mod p
and split there into factors of degree 1 or 2, each dividing x^(p^2) - x.
C is then left over whole, which is all the factorization reports of it.
Above degree 32 the primes try this proof on F before the floats run,
since a proof then costs less than they do.
Only a cofactor that no prime proves reaches sympy's exact `factor_list`
(C is all of F when floats cannot hold it or the iteration does not
settle); a bad prime costs time, never an answer.  Factorization over the rationals
is unique, so the answer is the one sympy alone would give.

Every path runs to the end, so `complete = False` means only that some
factor is irreducible over the rationals with degree > 2.  Quadratic
factors are reported whatever their discriminant; one with real irrational
roots cannot be split further either, and `upoly.right_roots` counts it as
incomplete too.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, isfinite, lcm, pi, sin
from typing import Iterable, Sequence

from .errors import InternalError
from .intmath import rational_sqrt

# Primes tried, in order, to prove a cofactor free of factors of degree
# <= 2: the odd primes below 100, those = 1 mod 3 first, since mod a prime
# = 2 mod 3 every x^3 - d has a root.  Each x^3 - d with d a non-cube up to
# 50 is proved by 7, 13 or 19.
_PROOF_PRIMES = (
    7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97,
    3, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89,
)
# Above this degree the small primes try to prove a polynomial free of
# factors of degree <= 2 before the floats run.  On a shared 2-core host a
# proof took 0.5 ms on x^64 + 1, where the floats took 114 ms and failed
# (20 s on x^800 + 1, the companion of x^400 + i), and 3 and 41 ms on dense
# polynomials of degree 64 and 128, against 60 and 730 ms of floats.  When
# a small factor exists no prime proves anything and the floats run after
# all: the failed proof cost 36 ms against 15 ms of floats at degree 32,
# 116 against 76 ms at 64 and 348 against 313 ms at 128.  Every companion
# of the `roots` benchmark has degree <= 8.
_PROOF_FIRST_DEGREE = 32
# Aberth-Ehrlich sweeps before the float stage gives up and hands the whole
# polynomial to sympy; the `roots` benchmark's companions settle in 4 to 18.
_MAX_SWEEPS = 100
# A root approximation has settled once |F(z)| is within this many rounding
# errors of the evaluation, i.e. z is an exact root of a polynomial whose
# coefficients differ from F's in the last bits.
_SETTLED_ULPS = 8


@dataclass(frozen=True)
class CentralFactorization:
    """Outcome of the factorization of a rational polynomial.

    linear: (root, multiplicity) pairs; quadratics: (t, n, multiplicity)
    for irreducible monic factors x^2 - t*x + n; leftover_degree counts
    the irreducible factors of degree > 2, with multiplicity in the input.
    Both tuples are sorted.  `complete`: no factor of degree > 2 is left.
    """

    linear: tuple[tuple[Fraction, int], ...]
    quadratics: tuple[tuple[Fraction, Fraction, int], ...]
    leftover_degree: int

    @property
    def complete(self) -> bool:
        return self.leftover_degree == 0


def _factor_low_degree(f: list[int]) -> CentralFactorization:
    """The factorization of an integer polynomial of degree 1 or 2, in
    closed form: a square discriminant splits a quadratic, zero gives a
    double root."""
    if len(f) == 2:
        return CentralFactorization(((Fraction(-f[1], f[0]), 1),), (), 0)
    t, n = Fraction(-f[1], f[0]), Fraction(f[2], f[0])
    s = rational_sqrt(t * t - 4 * n)
    if s is None:
        return CentralFactorization((), ((t, n, 1),), 0)
    if not s:
        return CentralFactorization(((t / 2, 2),), (), 0)
    return CentralFactorization((((t - s) / 2, 1), ((t + s) / 2, 1)), (), 0)


def _primitive_part(f: list[int]) -> list[int]:
    """f without leading zeros, divided by its content and signed so that
    the leading coefficient is positive; [] for zero."""
    f = f[next((k for k, c in enumerate(f) if c), len(f)):]
    content = -gcd(*f) if f and f[0] < 0 else gcd(*f)
    return [v // content for v in f]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b with deg b coefficients, leading
    zeros kept, for lc(b) nonzero; a itself when deg a < deg b.  The
    dividend is walked in place, so each step costs deg b products: a
    coefficient is owed lc(b)^k when it enters the window at step k."""
    f, lead, tail, n = list(a), b[0], b[1:], len(b) - 1
    steps, owed = len(a) - n, 1
    for k in range(steps):
        f[k + n] *= owed
        c = f[k]
        f[k + 1 : k + n + 1] = [lead * v - c * w for v, w in zip(f[k + 1 : k + n + 1], tail)]
        owed *= lead
    return f[max(steps, 0) :]


def _central_content(rows: Iterable[list[int]]) -> list[int]:
    """The gcd over the rationals of the integer coordinate rows of a
    nonzero quaternion polynomial p (each high to low), in the one form: the
    central c of greatest degree with p = q*c.  The sequence stops at gcd 1."""
    g: list[int] = []
    for f in map(_primitive_part, rows):
        while f:
            g, f = f, _primitive_part(_pseudo_remainder(g, f))
        if len(g) == 1:
            break
    return g


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f/g for integer polynomials high to low with g primitive, or None
    when g does not divide f.  By Gauss's lemma a quotient over the
    rationals is integral, so the first inexact step rejects."""
    f = list(f)
    steps = len(f) - len(g) + 1
    quotient = []
    for k in range(steps):
        q, r = divmod(f[k], g[0])
        if r:
            return None
        quotient.append(q)
        if q:
            for idx in range(1, len(g)):
                f[k + idx] -= q * g[idx]
    return None if any(f[steps:]) else quotient


def _sum_of_squares(rows: Sequence[list[int]]) -> list[int]:
    """The sum of the squares of integer polynomials of one length, high to
    low.  For the coordinate rows of a quaternion polynomial p that is the
    companion p * conj(p): x is central, so the rows commute with every
    unit and the cross terms cancel."""
    n = len(rows[0])
    out = [0] * max(2 * n - 1, 0)
    for row in rows:
        for i, a in enumerate(row):
            if a:
                out[2 * i] += a * a
                for j in range(i + 1, n):
                    out[i + j] += 2 * a * row[j]
    return out


def _content_and_norm(rows: Sequence[list[int]]) -> tuple[list[int], list[int]]:
    """(c, N(q)) in the one form for the coordinate rows of a nonzero
    quaternion polynomial p = q*c, c its central content: q's rows are
    p's divided exactly by c, and N(q) is the sum of their squares."""
    content = _central_content(rows)
    if len(content) > 1:
        rows = [_exact_quotient(row, content) for row in rows]
        if None in rows:
            raise InternalError("the central content does not divide the polynomial")
    return content, _primitive_part(_sum_of_squares(rows))


def _class_remainder(
    rows: Iterable[list[int]], t: Fraction, n: Fraction
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alpha, beta) with alpha_m*x + beta_m the pseudo-remainder of row m
    (high to low) by the primitive f of x^2 - t*x + n.  Rows of one length
    take one multiplier lc(f)^k > 0, so for the coordinate rows of a
    quaternion polynomial p, alpha*x + beta is s times the remainder of p
    by x^2 - t*x + n for one rational s > 0."""
    den = lcm(t.denominator, n.denominator)
    f = [den, -t.numerator * (den // t.denominator), n.numerator * (den // n.denominator)]
    rems = [([0, 0] + _pseudo_remainder(row, f))[-2:] for row in rows]
    return tuple(r[0] for r in rems), tuple(r[1] for r in rems)


def _approximate_roots(f: list[int]) -> list[complex] | None:
    """All complex roots of an integer polynomial of degree >= 1 with
    nonzero constant term, by Aberth-Ehrlich iteration in floats; None when
    the coefficients do not fit a float, a value stops being finite or the
    sweeps run out."""
    try:
        a = [c / f[0] for c in f]  # exact int quotients, correctly rounded
        n = len(a) - 1
        radius = max(abs(a[k]) ** (1 / k) for k in range(1, n + 1))
        # Starts on a circle, turned so that none is real and no two conjugate.
        angles = [2 * pi * k / n + 0.4 for k in range(n)]
        z = [radius * complex(cos(t), sin(t)) for t in angles]
        for _ in range(_MAX_SWEEPS):
            settled = True
            for i, zi in enumerate(z):
                value = slope = 0j
                bound, size = 0.0, abs(zi)
                for c in a:
                    slope = slope * zi + value
                    value = value * zi + c
                    bound = bound * size + abs(c)
                if not isfinite(bound):
                    return None
                if abs(value) <= _SETTLED_ULPS * sys.float_info.epsilon * bound:
                    continue
                settled = False
                ratio = value / slope
                repulsion = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                z[i] = zi - ratio / (1 - ratio * repulsion)
                if not isfinite(abs(z[i])):
                    return None
            if settled:
                return z
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _candidates(f: list[int]) -> list[list[int]]:
    """Primitive integer candidates for the factors of degree 1, then 2, of
    f, rounded from its approximate roots; empty when floats fail."""
    roots = _approximate_roots(f)
    if roots is None:
        return []
    lead = f[0]

    def on_grid(v: complex) -> int | None:
        # v*L rounded, when v lies within 1/(2L) of a point of (1/L)Z.
        scaled = v * lead
        m = round(scaled.real)
        return m if abs(scaled - m) < 0.5 else None

    linear, quadratic = {}, {}
    try:
        for r in roots:
            m = on_grid(r)
            if m is not None:
                g = gcd(lead, m)
                linear[lead // g, -m // g] = None
        for i, r in enumerate(roots):
            for s in roots[i + 1:]:
                t, n = on_grid(r + s), on_grid(r * s)
                if t is not None and n is not None:
                    g = gcd(lead, t, n)
                    quadratic[lead // g, -t // g, n // g] = None
    except OverflowError:
        pass  # a root too large to scale; the candidates so far still stand
    return [list(c) for c in (*linear, *quadratic)]


def _x_power_mod(e: int, g: list[int], p: int) -> list[int]:
    """x^e mod (g, p) by square-and-multiply, for g monic of degree d >= 2;
    the result has d coefficients."""
    d = len(g) - 1
    r = [0] * (d - 1) + [1]
    for bit in bin(e)[2:]:
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r):
                    prod[i + j] += a * b
        if bit == "1":
            prod.append(0)
        for k in range(len(prod) - d):
            if c := prod[k] % p:
                for i in range(1, d + 1):
                    prod[k + i] -= c * g[i]
        r = [c % p for c in prod[-d:]]
    return r


def _coprime_mod(a: list[int], b: list[int], p: int) -> bool:
    """Whether gcd(a, b) = 1 mod p, for a of degree >= 1 and greater than
    b's, with b's coefficients reduced mod p.  Euclid on pseudo-remainders:
    every leading coefficient is a unit mod p, and so is the content of a
    list of residues, so each step keeps the gcd mod p."""
    while len(b := _primitive_part(b)) > 1:
        a, b = b, [c % p for c in _pseudo_remainder(a, b)]
    return bool(b)


def _free_of_small_factors(f: list[int]) -> bool:
    """Whether some prime of `_PROOF_PRIMES` proves that the integer
    polynomial f (degree >= 3) has no rational factor of degree 1 or 2:
    gcd(f mod p, x^(p^2) - x) = 1 for a p not dividing the leading
    coefficient.  False says nothing."""
    for p in _PROOF_PRIMES:
        if f[0] % p:
            inv = pow(f[0], -1, p)
            g = [c * inv % p for c in f]
            h = _x_power_mod(p * p, g, p)
            h[-2] = (h[-2] - 1) % p
            if _coprime_mod(g, h, p):
                return True
    return False


def _sympy_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """The irreducible factors of an integer polynomial of degree >= 1 with
    their multiplicities, from sympy's exact factorization."""
    from sympy import Poly, Symbol, ZZ  # deliberate lazy import

    return [
        ([int(c) for c in factor.rep.to_list()], mult)
        for factor, mult in Poly(f, Symbol("x"), domain=ZZ).factor_list()[1]
    ]


def factor_central(f: list[int]) -> CentralFactorization:
    """Split a nonconstant polynomial in the one form (a primitive integer
    list, high to low, with a positive leading coefficient) into rational
    roots, monic irreducible quadratics and a remainder of irreducible
    factors of degree > 2.

    Candidate factors rounded from floating-point roots are confirmed by
    exact division, repeatedly for the multiplicity, and the cofactor they
    leave takes the closed form, a small-prime proof or sympy.  The floats
    and primes only choose which exact steps to take, so the answer is the
    exact factorization."""
    if len(f) < 2:
        raise ValueError("constant polynomial")
    rest = list(f)
    if len(rest) <= 3:
        return _factor_low_degree(rest)
    found = []
    # Divide out x exactly: the floats' settling test is relative to the
    # size of F's terms, which all vanish at 0, so approximations of the
    # root 0 never settle.
    zeros = 0
    while not rest[-1]:
        rest.pop()
        zeros += 1
    if zeros:
        found.append(([1, 0], zeros))
    proved = None  # whether the small primes prove rest free, once asked
    if len(rest) > _PROOF_FIRST_DEGREE + 1:
        proved = _free_of_small_factors(rest)
    for g in _candidates(rest) if len(rest) > 1 and not proved else []:
        mult = 0
        while len(rest) >= len(g) and (q := _exact_quotient(rest, g)) is not None:
            rest, mult, proved = q, mult + 1, None
        if mult:
            found.append((g, mult))
    if len(rest) > 1:
        if proved is None:
            proved = len(rest) <= 3 or _free_of_small_factors(rest)
        if proved:
            found.append((rest, 1))
        else:
            found += _sympy_factors(rest)
    linear, quadratics, leftover = Counter(), Counter(), 0
    for g, mult in found:
        if len(g) > 3:
            leftover += (len(g) - 1) * mult
            continue
        low = _factor_low_degree(g)
        for root, m in low.linear:
            linear[root] += m * mult
        for t, n, m in low.quadratics:
            quadratics[t, n] += m * mult
    return CentralFactorization(
        tuple(sorted(linear.items())),
        tuple(sorted((t, n, m) for (t, n), m in quadratics.items())),
        leftover,
    )
