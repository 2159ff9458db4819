"""Exact number-theoretic helpers: rational square roots and sums of squares.

These back the question "does this conjugacy-class sphere contain a point
with rational coordinates?", which must be decided exactly, never guessed.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def rational_sqrt(q: Fraction) -> Fraction | None:
    """The exact nonnegative square root of q, or None if q is not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def three_squares(n: int) -> tuple[int, int, int] | None:
    """(a, b, c) with a^2 + b^2 + c^2 = n, or None; the None answer is exact
    (Legendre: the n >= 0 with no such triple are those of the form
    4^a * (8b + 7))."""
    if n < 0:
        return None
    from sympy.solvers.diophantine.diophantine import sum_of_three_squares  # deliberate lazy import

    return sum_of_three_squares(n)
