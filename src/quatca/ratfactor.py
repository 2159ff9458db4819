"""Factorization of central (rational-coefficient) polynomials.

Root-class extraction needs the rational roots and the monic quadratic
factors of a central polynomial.  Both come from sympy's exact
factorization over the rationals, which always runs to the end, so
`complete = False` means only that some factor is irreducible over the
rationals with degree > 2.  Quadratic factors are reported whatever their
discriminant; one with real irrational roots cannot be split further
either, and `upoly.right_roots` counts it as incomplete too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CentralFactorization:
    """Outcome of the factorization of a monic rational polynomial.

    linear: (root, multiplicity) pairs; quadratics: (t, n, multiplicity)
    for irreducible monic factors x^2 - t*x + n; leftover_degree counts
    the irreducible factors of degree > 2, with multiplicity.  Both tuples
    are sorted.
    """

    linear: tuple[tuple[Fraction, int], ...]
    quadratics: tuple[tuple[Fraction, Fraction, int], ...]
    leftover_degree: int
    complete: bool


def factor_central(coeffs: list[Fraction]) -> CentralFactorization:
    """Split a nonconstant rational polynomial (coefficients low to high)
    into rational roots, monic irreducible quadratics and a remainder of
    irreducible factors of degree > 2."""
    if len(coeffs) < 2:
        raise ValueError("constant polynomial")
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
