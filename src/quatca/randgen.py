"""Seeded random generators for property suites.

Coefficient numerators and denominators stay small (height <= 10 by
default) so that exact arithmetic remains fast.  Commuting points are
manufactured as rational polynomials of a single random quaternion, which
guarantees pairwise commutation by construction; module presentations are
direct sums of one-dimensional modules conjugated by unimodular matrices
built from elementary row operations, so their inverses are exact and
integral.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .modules import Matrix, ModulePresentation, mat_identity, mat_mul
from .mpoly import CommutingPoint, MPoly
from .scalars import ONE, Quat, ZERO
from .upoly import UPoly


def rand_rat(rng: Random, height: int = 10) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))

def rand_int_rat(rng: Random, height: int = 10) -> Fraction:
    return Fraction(rng.randint(-height, height))


def rand_quat(rng: Random, height: int = 10, integer: bool = False) -> Quat:
    pick = rand_int_rat if integer else rand_rat
    return Quat(*(pick(rng, height) for _ in range(4)))


def rand_nonzero_quat(rng: Random, height: int = 10, integer: bool = False) -> Quat:
    while True:
        q = rand_quat(rng, height, integer)
        if q:
            return q


def rand_pure_quat(rng: Random, height: int = 10) -> Quat:
    while True:
        q = Quat(0, rand_rat(rng, height), rand_rat(rng, height), rand_rat(rng, height))
        if q:
            return q


def rand_upoly(rng: Random, max_degree: int, height: int = 10, integer: bool = False) -> UPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [rand_quat(rng, height, integer) for _ in range(degree)]
    coeffs.append(rand_nonzero_quat(rng, height, integer))
    return UPoly(coeffs)


def rand_gaussian(rng: Random, height: int = 3) -> Quat:
    """An element of the subfield generated by i, with small integer parts."""
    return Quat(rng.randint(-height, height), rng.randint(-height, height), 0, 0)


def rand_commuting_point(rng: Random, nvars: int, height: int = 4) -> CommutingPoint:
    """Components are rational polynomials of one shared quaternion."""
    q = rand_quat(rng, height)
    components = []
    for _ in range(nvars):
        value = Quat.scalar(rand_rat(rng, height))
        power = ONE
        for _ in range(rng.randint(0, 2)):
            power = power * q
            value = value + power * rand_rat(rng, height)
        components.append(value)
    return CommutingPoint(components)


def rand_mpoly(rng: Random, nvars: int, max_degree: int, terms: int = 5, height: int = 6) -> MPoly:
    out = MPoly(nvars, {})
    for _ in range(terms):
        exps = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        out = out + MPoly.monomial(rand_quat(rng, height), tuple(exps))
    return out


def rand_unimodular(rng: Random, m: int, ops: int = 3, height: int = 1) -> tuple[Matrix, Matrix]:
    """A product of elementary integer-quaternion row operations and its
    exact inverse."""
    u = u_inv = mat_identity(m)
    for _ in range(ops):
        r = rng.randrange(m)
        s = rng.randrange(m)
        if r == s:
            continue
        lam = rand_quat(rng, height, integer=True)
        e_plus = [list(row) for row in mat_identity(m)]
        e_minus = [list(row) for row in mat_identity(m)]
        e_plus[r][s], e_minus[r][s] = lam, -lam
        u = mat_mul(u, e_plus)
        u_inv = mat_mul(e_minus, u_inv)
    return u, u_inv


def rand_module(
    rng: Random, nvars: int, m: int, height: int = 3
) -> tuple[ModulePresentation, list[list[Quat]]]:
    """Conjugated direct sum of one-dimensional modules over points whose
    components live in the subfield generated by i.

    Returns the presentation and the underlying diagonal values
    (one commuting tuple per coordinate position).
    """
    positions = [
        [rand_gaussian(rng, height) for _ in range(nvars)] for _ in range(m)
    ]
    u, u_inv = rand_unimodular(rng, m)
    mats = []
    for i in range(nvars):
        diag = tuple(
            tuple(positions[r][i] if r == c else ZERO for c in range(m))
            for r in range(m)
        )
        mats.append(mat_mul(mat_mul(u, diag), u_inv))
    return ModulePresentation(m, mats), positions
