"""Factorization of central (rational-coefficient) polynomials.

Root-class extraction needs the rational roots and the monic quadratic
factors of a central polynomial.  Degree 1 and 2 take a closed form (the
discriminant and an exact rational square root).  Above degree 2, floats
propose and exact division confirms: the polynomial is cleared to a
primitive integer F with leading coefficient L, its complex roots are
approximated by Aberth-Ehrlich iteration, and each near-real root and each
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
Only a cofactor that no prime proves reaches sympy's exact `factor_list`
(C is all of F when floats cannot hold it or the iteration does not
settle); a bad prime costs time, never an answer.  Factorization over the rationals
is unique, so the answer is the one sympy alone would give.

Every path runs to the end, so `complete = False` means only that some
factor is irreducible over the rationals with degree > 2.  Quadratic
factors are reported whatever their discriminant; one with real irrational
roots cannot be split further either, and `upoly.right_roots` counts it as
incomplete too.

`upoly.right_roots` factors the central content c of p and the norm N(q)
of its cofactor p = q*c, not N(p) = c^2*N(q), so over its calls a
leftover factor of the content counts once, not squared.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, isfinite, lcm, pi, sin

from .intmath import rational_sqrt

# Primes tried, in order, to prove a cofactor free of factors of degree
# <= 2: the odd primes below 100, those = 1 mod 3 first, since mod a prime
# = 2 mod 3 every x^3 - d has a root.  Each x^3 - d with d a non-cube up to
# 50 is proved by 7, 13 or 19.
_PROOF_PRIMES = (
    7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97,
    3, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89,
)
# Aberth-Ehrlich sweeps before the float stage gives up and hands the whole
# polynomial to sympy; the `roots` benchmark's companions settle in 4 to 18.
_MAX_SWEEPS = 100
# A root approximation has settled once |F(z)| is within this many rounding
# errors of the evaluation, i.e. z is an exact root of a polynomial whose
# coefficients differ from F's in the last bits.
_SETTLED_ULPS = 8


@dataclass(frozen=True)
class CentralFactorization:
    """Outcome of the factorization of a monic rational polynomial.

    linear: (root, multiplicity) pairs; quadratics: (t, n, multiplicity)
    for irreducible monic factors x^2 - t*x + n; leftover_degree counts
    the irreducible factors of degree > 2, with multiplicity in the input
    (a content factor of a `right_roots` search therefore once, not
    squared).  Both tuples are sorted.  `complete` is derived: no factor
    of degree > 2 is left over.
    """

    linear: tuple[tuple[Fraction, int], ...]
    quadratics: tuple[tuple[Fraction, Fraction, int], ...]
    leftover_degree: int

    @property
    def complete(self) -> bool:
        return self.leftover_degree == 0


def _factor_low_degree(coeffs: list[Fraction]) -> CentralFactorization:
    """The factorization of a rational polynomial of degree 1 or 2, in
    closed form: a square discriminant splits a quadratic, zero gives a
    double root."""
    lead = Fraction(coeffs[-1])
    if len(coeffs) == 2:
        return CentralFactorization(((-coeffs[0] / lead, 1),), (), 0)
    t, n = -coeffs[1] / lead, coeffs[0] / lead
    s = rational_sqrt(t * t - 4 * n)
    if s is None:
        return CentralFactorization((), ((t, n, 1),), 0)
    if not s:
        return CentralFactorization(((t / 2, 2),), (), 0)
    return CentralFactorization((((t - s) / 2, 1), ((t + s) / 2, 1)), (), 0)


def _primitive(coeffs: list[Fraction]) -> list[int]:
    """The primitive integer multiple of a rational polynomial with positive
    leading coefficient, coefficients high to low."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in reversed(coeffs)]
    content = gcd(*ints)
    return [v // content for v in ints] if ints[0] > 0 else [-v // content for v in ints]


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
    """x^e mod (g, p) by square-and-multiply, for g monic of degree d >= 2
    with coefficients low to high; the result has d coefficients."""
    d = len(g) - 1
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r):
                    prod[i + j] += a * b
        if bit == "1":
            prod.insert(0, 0)
        for k in range(len(prod) - 1, d - 1, -1):
            if c := prod[k] % p:
                for i in range(d):
                    prod[k - d + i] -= c * g[i]
        r = [c % p for c in prod[:d]]
    return r


def _coprime_mod(a: list[int], b: list[int], p: int) -> bool:
    """Whether gcd(a, b) = 1 mod p, by Euclid, for a of degree >= 1 and
    greater than b's; coefficients low to high."""
    while True:
        while b and not b[-1]:
            b.pop()
        if len(b) <= 1:
            return bool(b)
        a, inv = list(a), pow(b[-1], -1, p)
        for k in range(len(a) - 1, len(b) - 2, -1):
            if c := a[k] * inv % p:
                for i, bi in enumerate(b):
                    a[k - len(b) + 1 + i] -= c * bi
        a, b = b, [c % p for c in a[: len(b) - 1]]


def _free_of_small_factors(f: list[int]) -> bool:
    """Whether some prime of `_PROOF_PRIMES` proves that the integer
    polynomial f (high to low, degree >= 3) has no rational factor of
    degree 1 or 2: gcd(f mod p, x^(p^2) - x) = 1 for a p not dividing the
    leading coefficient.  False says nothing."""
    for p in _PROOF_PRIMES:
        if f[0] % p:
            inv = pow(f[0], -1, p)
            g = [c * inv % p for c in reversed(f)]
            h = _x_power_mod(p * p, g, p)
            h[1] = (h[1] - 1) % p
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


def factor_central(coeffs: list[Fraction]) -> CentralFactorization:
    """Split a nonconstant rational polynomial (coefficients low to high)
    into rational roots, monic irreducible quadratics and a remainder of
    irreducible factors of degree > 2.

    Degree <= 2 takes a closed form.  Above it, candidate factors of degree
    1 and 2 rounded from floating-point roots are confirmed by exact
    division, repeatedly for the multiplicity.  The cofactor they leave is
    kept whole when it has degree <= 2 (the closed form splits it) or when
    a small prime proves it free of factors of degree <= 2; only otherwise
    does sympy factor it.  The floats and primes only choose which exact
    steps to take, so the answer is the exact factorization; a product of
    rational linear and quadratic factors whose roots the floats resolve,
    times irreducible factors of degree > 2 that a prime proves, never
    imports sympy."""
    if len(coeffs) < 2:
        raise ValueError("constant polynomial")
    if len(coeffs) <= 3:
        return _factor_low_degree(coeffs)
    rest = _primitive(coeffs)
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
    candidates = _candidates(rest) if len(rest) > 1 else []
    for g in candidates:
        mult = 0
        while len(rest) >= len(g) and (q := _exact_quotient(rest, g)) is not None:
            rest, mult = q, mult + 1
        if mult:
            found.append((g, mult))
    if len(rest) > 1:
        if len(rest) <= 3 or _free_of_small_factors(rest):
            found.append((rest, 1))
        else:
            found += _sympy_factors(rest)
    linear, quadratics, leftover = Counter(), Counter(), 0
    for g, mult in found:
        if len(g) > 3:
            leftover += (len(g) - 1) * mult
            continue
        low = _factor_low_degree([Fraction(c) for c in reversed(g)])
        for root, m in low.linear:
            linear[root] += m * mult
        for t, n, m in low.quadratics:
            quadratics[t, n] += m * mult
    return CentralFactorization(
        tuple(sorted(linear.items())),
        tuple(sorted((t, n, m) for (t, n), m in quadratics.items())),
        leftover,
    )
