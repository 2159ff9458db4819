"""Exact number-theoretic helpers: rational square roots and sums of squares.

These back the question "does this conjugacy-class sphere contain a point
with rational coordinates?", which must be decided exactly, never guessed.

`three_squares` returns the triple sympy's `sum_of_three_squares` returns,
computed in integers (Rabin & Shallit 1986): after 4^a is stripped, a
square is (0, 0, s), and otherwise x descends until n - x^2 (or half of
it, when n = 3 mod 8) is a prime p = 1 mod 4, whose unique split into two
squares the Hermite-Serret step finds.  Primality is Miller-Rabin on the
first 13 prime bases, which is deterministic below `_MR_BOUND`.  Above it,
or should a triple ever fail to square back to n, sympy decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# Miller-Rabin with these bases is deterministic below the bound
# (Sorenson & Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# The n (free of factors 4, not 7 mod 8) that the prime descent misses,
# with the triples sympy returns for them.
_SPECIAL = {
    1: (0, 0, 1), 2: (0, 1, 1), 3: (1, 1, 1), 10: (0, 1, 3), 34: (3, 3, 4),
    58: (0, 3, 7), 85: (0, 6, 7), 130: (0, 3, 11), 214: (3, 6, 13), 226: (8, 9, 9),
    370: (8, 9, 15), 526: (6, 7, 21), 706: (15, 15, 16), 730: (0, 1, 27),
    1414: (6, 17, 33), 1906: (13, 21, 36), 2986: (21, 32, 39), 9634: (56, 57, 57),
}


def rational_sqrt(q: Fraction) -> Fraction | None:
    """The exact nonnegative square root of q, or None if q is not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _is_prime(n: int) -> bool:
    """Primality of 0 <= n < _MR_BOUND by Miller-Rabin on `_MR_BASES`."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p for a prime p = 1 mod 4 (Hermite-Serret):
    Euclid on p and a square root c^((p-1)/4) of -1 mod p, c the least
    with c^((p-1)/2) = -1, stops at the first two remainders below sqrt(p).
    The search for c ends at 200, so it ends for a composite p too; the
    pair then need not square back to p."""
    for c in range(2, 200):
        if pow(c, p >> 1, p) == p - 1:
            break
    a, b = p, pow(c, p >> 2, p)
    while b * b > p:
        a, b = b, a % b
    return (a % b if b else 0), b


def _descend(n: int) -> tuple[int, int, int] | None:
    """The sorted triple for n free of factors 4, not 7 mod 8 and below
    `_MR_BOUND`, by sympy's rule; None if the descent finds no prime."""
    if n in _SPECIAL:
        return _SPECIAL[n]
    s = isqrt(n)
    if s * s == n:
        return 0, 0, s
    half = n % 8 == 3
    # x is odd when n = 3 mod 8, and of the other parity than n otherwise,
    # so that the p below is 1 mod 4.
    if s % 2 == (0 if half else n % 2):
        s -= 1
    for x in range(s, -1, -2):
        p = (n - x * x) >> half
        if _is_prime(p):
            y, z = _two_squares(p)
            return tuple(sorted((x, y + z, abs(y - z)) if half else (x, y, z)))
    return None


def three_squares(n: int) -> tuple[int, int, int] | None:
    """(a, b, c) with 0 <= a <= b <= c and a^2 + b^2 + c^2 = n, or None;
    the None answer is exact (Legendre: the n >= 0 with no such triple are
    those of the form 4^a * (8b + 7))."""
    if n < 0:
        return None
    if n == 0:
        return 0, 0, 0
    m, v = n, 1
    while not m % 4:
        m, v = m // 4, v * 2
    if m % 8 == 7:
        return None
    triple = _descend(m) if m < _MR_BOUND else None
    if triple is not None and sum(t * t for t in triple) == m:
        return tuple(v * t for t in triple)
    from sympy.solvers.diophantine.diophantine import sum_of_three_squares  # deliberate lazy import

    return sum_of_three_squares(n)
