"""Factorization of central (rational-coefficient) polynomials.

Root-class extraction needs the rational roots and the monic quadratic
factors of a central polynomial.  Degree 1 and 2 take a closed form (the
discriminant and an exact rational square root); higher degrees take
sympy's exact factorization over the rationals.  Both always run to the
end, so `complete = False` means only that some factor is irreducible over
the rationals with degree > 2.  Quadratic factors are reported whatever
their discriminant; one with real irrational roots cannot be split further
either, and `upoly.right_roots` counts it as incomplete too.

`upoly.right_roots` factors the central content c of p and the norm N(q)
of its cofactor p = q*c, not N(p) = c^2*N(q), so over its calls a
leftover factor of the content counts once, not squared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intmath import rational_sqrt


@dataclass(frozen=True)
class CentralFactorization:
    """Outcome of the factorization of a monic rational polynomial.

    linear: (root, multiplicity) pairs; quadratics: (t, n, multiplicity)
    for irreducible monic factors x^2 - t*x + n; leftover_degree counts
    the irreducible factors of degree > 2, with multiplicity in the input
    (a content factor of a `right_roots` search therefore once, not
    squared).  Both tuples are sorted.
    """

    linear: tuple[tuple[Fraction, int], ...]
    quadratics: tuple[tuple[Fraction, Fraction, int], ...]
    leftover_degree: int
    complete: bool


def _factor_low_degree(coeffs: list[Fraction]) -> CentralFactorization:
    """The factorization of a rational polynomial of degree 1 or 2, in
    closed form: a square discriminant splits a quadratic, zero gives a
    double root."""
    lead = Fraction(coeffs[-1])
    if len(coeffs) == 2:
        return CentralFactorization(((-coeffs[0] / lead, 1),), (), 0, True)
    t, n = -coeffs[1] / lead, coeffs[0] / lead
    s = rational_sqrt(t * t - 4 * n)
    if s is None:
        return CentralFactorization((), ((t, n, 1),), 0, True)
    if not s:
        return CentralFactorization(((t / 2, 2),), (), 0, True)
    return CentralFactorization((((t - s) / 2, 1), ((t + s) / 2, 1)), (), 0, True)


def factor_central(coeffs: list[Fraction]) -> CentralFactorization:
    """Split a nonconstant rational polynomial (coefficients low to high)
    into rational roots, monic irreducible quadratics and a remainder of
    irreducible factors of degree > 2.  Degree <= 2 never imports sympy."""
    if len(coeffs) < 2:
        raise ValueError("constant polynomial")
    if len(coeffs) <= 3:
        return _factor_low_degree(coeffs)
    from sympy import Poly, QQ, Symbol  # deliberate lazy import

    poly = Poly([QQ(c.numerator, c.denominator) for c in reversed(coeffs)], Symbol("x"), domain=QQ)
    linear, quadratics, leftover = [], [], 0
    for factor, mult in poly.factor_list()[1]:
        high_to_low = [Fraction(int(c.numerator), int(c.denominator)) for c in factor.rep.to_list()]
        monic = [c / high_to_low[0] for c in high_to_low]
        if len(monic) == 2:
            linear.append((-monic[1], mult))
        elif len(monic) == 3:
            quadratics.append((-monic[1], monic[2], mult))
        else:
            leftover += (len(monic) - 1) * mult
    return CentralFactorization(tuple(sorted(linear)), tuple(sorted(quadratics)), leftover, leftover == 0)
