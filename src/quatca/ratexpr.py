"""The recursive criteria for left linear independence and left algebraic
degree over the centralizer of an element, and the oracles that
cross-check them: a rank for independence, and the closed-form minimal
polynomial for the degree.

The criterion for vectors b_1..b_n at a replaces each b_m, m < n, by the
commutator [a, b_m * b_n^-1] and recurses on one fewer vector; what is left
at the end is its value.  The criterion is a rational expression, evaluated
strictly: inverting zero at any step leaves it undefined, whatever the
later steps would multiply that inverse by.  That is the standard semantics
of rational expressions over a division ring.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError, InvalidInput
from .scalars import ONE, Quat, centralizer_of_set, commutator, left_rank
from .upoly import minimal_left_poly, minimal_right_poly


def _criterion(a: Quat, vectors: Sequence[Quat]) -> Quat | None:
    """The recursive criterion at a over `vectors`; None when some step
    inverts zero."""
    while len(vectors) > 1:
        last = vectors[-1]
        if not last:
            return None
        last_inv = last.inverse()
        vectors = [commutator(a, v * last_inv) for v in vectors[:-1]]
    return vectors[0]


def independent_via_criterion(a: Quat, bs: Sequence[Quat]) -> bool:
    """Left linear independence over the centralizer of a, decided by the
    recursive criterion: independent iff defined and nonzero."""
    if not bs:
        raise InvalidInput("empty vector list")
    value = _criterion(a, bs)
    return value is not None and bool(value)


def independent_via_rank(a: Quat, bs: Sequence[Quat]) -> bool:
    """The same question answered by exact rank computation over rational
    coordinates; serves as the independent cross-check of the criterion."""
    c = centralizer_of_set([a])
    return left_rank(bs, c) == len(bs)


def left_degree_via_criterion(a: Quat, b: Quat) -> int:
    """Left algebraic degree of b over the centralizer of a: the first n at
    which the criterion over (1, b, ..., b^n) is a defined zero.  Only
    n = 1 and 2 are tried: the degree over a centralizer is at most 2 (the
    closed form in `minimal_left_poly`).

    The degree of zero is one (its minimal polynomial is x) but the
    criterion is undefined there, so that case is answered directly.
    """
    if not b:
        return 1
    for powers in ([ONE, b], [ONE, b, b * b]):
        value = _criterion(a, powers)
        if value is not None and not value:
            return len(powers) - 1
    raise InternalError("degree criterion exceeded the quaternion degree bound")


def left_degree_via_rank(a: Quat, b: Quat) -> int:
    """Degree of the minimal left polynomial of b over the centralizer of a,
    read from `minimal_left_poly`'s closed form (x - b, or the class
    quadratic); no rank is computed."""
    return minimal_left_poly(b, centralizer_of_set([a])).degree


def right_degree(b: Quat, a: Quat) -> int:
    """Degree of the minimal right polynomial of a over the centralizer of b;
    always matches the left degree of b over the centralizer of a."""
    return minimal_right_poly(a, centralizer_of_set([b])).degree


def algebraicity_witness(a: Quat, b: Quat) -> list[Quat]:
    """Coefficients (c_0, ..., c_{n-1}), all commuting with b, such that
    a^n + a^{n-1} c_{n-1} + ... + a c_1 + c_0 = 0.

    These are the non-leading coefficients of the minimal right polynomial
    of a over the centralizer of b; they witness that b lies in a
    centralizer of a tuple annihilating a.
    """
    poly = minimal_right_poly(a, centralizer_of_set([b]))
    witness = list(poly.coeffs[:-1])
    if poly.eval_right(a):
        raise InternalError("witness identity failed")
    for coeff in witness:
        if not coeff.commutes_with(b):
            raise InternalError("witness coefficient escapes the centralizer")
    return witness
