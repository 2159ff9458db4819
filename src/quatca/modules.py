"""Finite-dimensional modules given by pairwise-commuting quaternion
matrices, and the constructive extraction of common eigenvectors.

A presentation is a left vector space of row vectors over the quaternions,
with the i-th variable acting by right multiplication with the i-th matrix.
The actions are checked to commute pairwise at construction, as the
components of a commuting point are, so every presentation is valid.
A common eigenvector with pairwise commuting eigenvalues realizes a
one-dimensional submodule, i.e. a point ideal annihilator.

Every action of a matrix on a vector, the commutation check, the Krylov
iterates of `annihilator_minpoly` and `poly_action` included, is one
`scalars._dot` per entry: a sum of quaternion products accumulated on
integer numerators and reduced once.  The first dependence among those
iterates comes from elimination over the quaternions
(`scalars.first_dependence`), so splitting a module builds no rational
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from typing import Sequence

from .errors import InternalError, InvalidInput
from .mpoly import CommutingPoint
from .scalars import ONE, Quat, ZERO, _dot, _immutable, centralizer_of_set, first_dependence
from .upoly import RootSearchStatus, UPoly, roots_in_centralizer

Matrix = tuple[tuple[Quat, ...], ...]
Vector = tuple[Quat, ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(c if isinstance(c, Quat) else Quat.scalar(c) for c in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_mat(row, b) for row in a)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(ONE if r == c else ZERO for c in range(n)) for r in range(n))


def vec_mat(v: Vector, a: Matrix) -> Vector:
    return tuple(_dot(v, col) for col in zip(*a))


def vec_scale(q: Quat, v: Vector) -> Vector:
    return tuple(q * c for c in v)


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


class ModulePresentation:
    """m-dimensional row-vector module with n pairwise-commuting matrix
    actions; shapes and commutation are validated at construction."""

    __slots__ = ("m", "mats")

    def __init__(self, m: int, mats: Sequence[Sequence[Sequence[Quat]]]):
        if m < 1:
            raise InvalidInput("module dimension must be positive")
        fixed = tuple(_as_matrix(mat) for mat in mats)
        if not fixed:
            raise InvalidInput("at least one action matrix is required")
        for mat in fixed:
            if len(mat) != m or any(len(row) != m for row in mat):
                raise InvalidInput(f"action matrices must be {m}x{m}")
        clashes = [
            f"actions {i + 1} and {j + 1} do not commute"
            for (i, a), (j, b) in combinations(enumerate(fixed), 2)
            if mat_mul(a, b) != mat_mul(b, a)
        ]
        if clashes:
            raise InvalidInput("; ".join(clashes))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mats", fixed)

    __setattr__ = _immutable

    @property
    def nvars(self) -> int:
        return len(self.mats)

    def act(self, i: int, v: Vector) -> Vector:
        return vec_mat(v, self.mats[i])

    def poly_action(self, i: int, p: UPoly, v: Vector) -> Vector:
        """Apply sum_k c_k * (v * A_i^k); coefficients act on the left.
        Entry t is one dot product of the coefficients with entry t of the
        iterates v * A_i^k."""
        iterates = accumulate(repeat(self.mats[i], len(p.coeffs) - 1), vec_mat, initial=v)
        return tuple(_dot(p.coeffs, entries) for entries in zip(*iterates))

    def __eq__(self, other):
        if not isinstance(other, ModulePresentation):
            return NotImplemented
        return self.m == other.m and self.mats == other.mats

    def __repr__(self):
        return f"ModulePresentation(m={self.m}, nvars={self.nvars})"


@dataclass(frozen=True)
class EigenTuple:
    """Nonzero v with v*A_i = a_i*v for every action; the a_i commute."""

    v: Vector
    point: CommutingPoint


@dataclass(frozen=True)
class RootNotFound:
    """The working scalar field has no root of the polynomial that the
    extraction needed to split; carries the offending polynomial."""

    poly: UPoly
    var_index: int
    search_exhaustive: bool


def annihilator_minpoly(module: ModulePresentation, v: Vector, i: int) -> UPoly:
    """Minimal monic p with sum_k c_k * (v * A_i^k) = 0.

    The annihilators of v under the i-th action form a left ideal in the
    one-variable polynomial ring; its monic generator is found by looking
    for the first left dependence among v, v*A, v*A^2, ...
    """
    if vec_is_zero(v):
        raise InvalidInput("annihilator of the zero vector is everything")
    iterates = accumulate(repeat(module.mats[i], module.m), vec_mat, initial=v)
    sol = first_dependence(iterates)
    if sol is None:
        raise InternalError("no annihilator found within the module dimension")
    return UPoly([-c for c in sol] + [ONE])


def _extract_from_seed(
    module: ModulePresentation, v: Vector, values: tuple[Quat, ...] = ()
) -> EigenTuple | RootNotFound:
    """A common eigenvector reached from v, whose eigenvalues for the first
    len(values) actions are `values`, by a depth-first search over every
    left root class at each later variable.  The first branch takes the
    first class each time; a branch that fails gives way to the next, and
    RootNotFound, from the first branch that failed, is returned only when
    every branch fails."""
    i = len(values)
    if i == module.nvars:
        tup = EigenTuple(v, CommutingPoint(values))
        _verify_eigen_tuple(module, tup)
        return tup
    p = annihilator_minpoly(module, v, i)
    c = centralizer_of_set(values)
    for coeff in p.coeffs:
        if not c.contains(coeff):
            raise InternalError(
                "annihilator coefficients escaped the centralizer of the "
                "eigenvalues found so far"
            )
    roots, status = roots_in_centralizer(p, c, side="left")
    first_missing = None if roots else RootNotFound(p, i, status is RootSearchStatus.COMPLETE)
    for a in roots:
        quotient, rem = p.divmod_left(UPoly.linear(a))
        if not rem.is_zero():
            raise InternalError("left root failed to split its polynomial")
        w = module.poly_action(i, quotient, v)
        if vec_is_zero(w):
            raise InternalError("eigenvector candidate collapsed to zero")
        outcome = _extract_from_seed(module, w, (*values, a))
        if isinstance(outcome, EigenTuple):
            return outcome
        if first_missing is None:
            first_missing = outcome
    return first_missing


def _verify_eigen_tuple(module: ModulePresentation, tup: EigenTuple):
    if vec_is_zero(tup.v):
        raise InternalError("eigen tuple has a zero vector")
    for i in range(module.nvars):
        if module.act(i, tup.v) != vec_scale(tup.point[i], tup.v):
            raise InternalError(f"eigen identity fails for action {i + 1}")


def find_eigen_tuple(
    module: ModulePresentation, seed: Vector | None = None
) -> EigenTuple | RootNotFound:
    """Extract a common eigenvector with pairwise-commuting eigenvalues.

    Walks the variables in order: take the minimal annihilator of the
    current vector under the next action (its coefficients provably commute
    with the eigenvalues already found), split off a left root inside that
    centralizer, and push the vector through the cofactor.  Every root
    class is tried in turn, depth first, so a class whose branch meets a
    polynomial without a root in the working field gives way to the next.
    A missing root on every branch is reported as RootNotFound with the
    first branch's offending polynomial, never fudged.

    Seeds are tried in order: the caller's, then the standard basis; the
    first RootNotFound is returned when no seed yields a tuple.  An
    InternalError on any seed is a kernel fault and propagates at once,
    even if a later seed would succeed.
    """
    seeds: list[Vector] = []
    if seed is not None:
        (fixed,) = _as_matrix([seed])
        if len(fixed) != module.m:
            raise InvalidInput("seed vector has the wrong length")
        if vec_is_zero(fixed):
            raise InvalidInput("seed vector must be nonzero")
        seeds.append(fixed)
    for e in mat_identity(module.m):
        if e not in seeds:
            seeds.append(e)
    first_missing: RootNotFound | None = None
    for s in seeds:
        outcome = _extract_from_seed(module, s)
        if isinstance(outcome, EigenTuple):
            return outcome
        if first_missing is None:
            first_missing = outcome
    return first_missing
