"""Finite-dimensional modules given by pairwise-commuting quaternion
matrices, and the constructive extraction of common eigenvectors.

A presentation is a left vector space of row vectors over the quaternions,
with the i-th variable acting by right multiplication with the i-th matrix.
The actions are checked to commute pairwise at construction, as the
components of a commuting point are, so every presentation is valid.
A common eigenvector with pairwise commuting eigenvalues realizes a
one-dimensional submodule, i.e. a point ideal annihilator.

A presentation also keeps each action as integers: the numerators of its
entries over one denominator d, as columns, read once at construction.
The commutation check compares the numerators of A*B and B*A, which share
the denominator d_A*d_B, so it reduces nothing and builds no `Quat`.
Every action on a vector (`act`, the iterates of `poly_action`, the
check of an eigen tuple) brings the vector to one denominator once and
takes one integer dot per entry, reduced once.  `annihilator_minpoly`
stays on those integers: it eliminates each Krylov row over the
quaternions, fraction-free, as the row is acted on, and builds a `Quat`
only for its answer, so splitting a module builds no rational system.
"""

from __future__ import annotations

from itertools import accumulate, combinations, repeat
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalError, InvalidInput
from .mpoly import CommutingPoint
from .scalars import ONE, Quat, ZERO, _Record, _dot, _qmul, _reduced, centralizer_of_set
from .upoly import RootSearchStatus, UPoly, roots_in_centralizer

Matrix = tuple[tuple[Quat, ...], ...]
Vector = tuple[Quat, ...]
# An action in integers: its columns, each a tuple of the entries' numerator
# 4-tuples over the one denominator that follows.
IntAction = tuple[tuple[tuple[tuple[int, int, int, int], ...], ...], int]

_ZERO_NUMERATORS = (0, 0, 0, 0)


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(c if isinstance(c, Quat) else Quat.scalar(c) for c in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_mat(row, b) for row in a)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(ONE if r == c else ZERO for c in range(n)) for r in range(n))


def vec_mat(v: Vector, a: Matrix) -> Vector:
    return tuple(_dot(v, col) for col in zip(*a))


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


def _numerator_rows(mat: Matrix) -> tuple[list[list[tuple[int, int, int, int]]], int]:
    """(rows, d): the numerators of every entry over the least common
    denominator d of the matrix, row by row."""
    d = lcm(*(q._d for row in mat for q in row))
    return [[q._n if q._d == d else tuple(v * (d // q._d) for v in q._n) for q in row] for row in mat], d


def _nonzero(row) -> list[tuple[int, tuple[int, int, int, int]]]:
    """The (index, numerators) of the nonzero entries of an integer row."""
    return [(t, n) for t, n in enumerate(row) if n != _ZERO_NUMERATORS]


def _int_dot(row, col) -> tuple[int, int, int, int]:
    """sum_t row[t] * col[t] on integer numerators, each row entry left of
    its column entry, over the nonzero (index, numerators) of the row."""
    w = x = y = z = 0
    for t, (a, b, c, d) in row:
        e, f, g, h = col[t]
        w += a * e - b * f - c * g - d * h
        x += a * f + b * e + c * h - d * g
        y += a * g - b * h + c * e + d * f
        z += a * h + b * g - c * f + d * e
    return w, x, y, z


def _products_agree(rows_a, cols_a, rows_b, cols_b) -> bool:
    """A*B == B*A for integer matrices, from nonzero rows and columns; the
    first entry that differs settles it."""
    return all(
        _int_dot(ra, cb) == _int_dot(rb, ca)
        for ra, rb in zip(rows_a, rows_b)
        for ca, cb in zip(cols_a, cols_b)
    )


def _vector_numerators(v: Vector, m: int) -> tuple[list[tuple[int, int, int, int]], int]:
    """(numerators, L) of v's entries over their least common denominator L;
    a vector of another length than m is InvalidInput."""
    if len(v) != m:
        raise InvalidInput(f"vector of length {len(v)} for a module of dimension {m}")
    (row,), den = _numerator_rows((v,))
    return row, den


def _act(v: Vector, action: IntAction) -> Vector:
    """v*A for A given by its integer columns over d: v's entries are
    brought to their least common denominator L once, and each entry of the
    product is one integer dot over L*d, reduced once."""
    cols, d = action
    row, den = _vector_numerators(v, len(cols))
    row, den = _nonzero(row), den * d
    return tuple(_reduced(*_int_dot(row, col), den) for col in cols)


class ModulePresentation(_Record):
    """m-dimensional row-vector module with n pairwise-commuting matrix
    actions; shapes and commutation are validated at construction."""

    __slots__ = ("m", "mats", "_actions")

    def __init__(self, m: int, mats: Sequence[Sequence[Sequence[Quat]]]):
        if m < 1:
            raise InvalidInput("module dimension must be positive")
        fixed = tuple(_as_matrix(mat) for mat in mats)
        if not fixed:
            raise InvalidInput("at least one action matrix is required")
        for mat in fixed:
            if len(mat) != m or any(len(row) != m for row in mat):
                raise InvalidInput(f"action matrices must be {m}x{m}")
        integer = [_numerator_rows(mat) for mat in fixed]
        actions = tuple((tuple(zip(*rows)), d) for rows, d in integer)
        # A*B and B*A share the denominator d_A*d_B: compare numerators.
        rows = [[_nonzero(row) for row in rows] for rows, _ in integer]
        clashes = [
            f"actions {i + 1} and {j + 1} do not commute"
            for i, j in combinations(range(len(fixed)), 2)
            if not _products_agree(rows[i], actions[i][0], rows[j], actions[j][0])
        ]
        if clashes:
            raise InvalidInput("; ".join(clashes))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mats", fixed)
        object.__setattr__(self, "_actions", actions)

    @property
    def nvars(self) -> int:
        return len(self.mats)

    def act(self, i: int, v: Vector) -> Vector:
        return _act(v, self._actions[i])

    def poly_action(self, i: int, p: UPoly, v: Vector) -> Vector:
        """Apply sum_k c_k * (v * A_i^k); coefficients act on the left.
        Entry t is one dot product of the coefficients with entry t of the
        iterates v * A_i^k."""
        iterates = accumulate(repeat(self._actions[i], len(p.coeffs) - 1), _act, initial=v)
        return tuple(_dot(p.coeffs, entries) for entries in zip(*iterates))

    def _key(self) -> tuple:
        # `_actions` is read from `mats`.
        return (self.m, self.mats)

    def __repr__(self):
        return f"ModulePresentation(m={self.m}, nvars={self.nvars})"


class EigenTuple(_Record):
    """Nonzero v with v*A_i = a_i*v for every action; the a_i commute."""

    __slots__ = ("v", "point")

    def __init__(self, v: Vector, point: CommutingPoint):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "point", point)


class RootNotFound(_Record):
    """The working scalar field has no root of the polynomial that the
    extraction needed to split; carries the offending polynomial."""

    __slots__ = ("poly", "var_index", "search_exhaustive")

    def __init__(self, poly: UPoly, var_index: int, search_exhaustive: bool):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "var_index", var_index)
        object.__setattr__(self, "search_exhaustive", search_exhaustive)


def annihilator_minpoly(module: ModulePresentation, v: Vector, i: int) -> UPoly:
    """Minimal monic p with sum_k c_k * (v * A_i^k) = 0, from the first left
    dependence among v, v*A, v*A^2, ..., found in integers: fraction-free
    elimination over H (Bareiss 1968) of the Krylov rows acted on in
    reduced form (Keller-Gehrig 1985).  With A = C/d, a row holds the
    numerators of a positive multiple of r = v*c(A), then those of c.  It is
    reduced by each pivot row b kept so far, r <- N(pi)*r - (f*conj(pi))*b
    for pi = b[p] and f = r[p] at b's pivot p, and divided by its content.
    A row left nonzero is kept, and the next is r*C with c shifted and times
    d.  The first row to vanish gives p = c/T, T its top coefficient, a
    positive integer."""
    if vec_is_zero(v):
        raise InvalidInput("annihilator of the zero vector is everything")
    m = module.m
    cols, d = module._actions[i]
    row, _ = _vector_numerators(v, m)
    row += [(1, 0, 0, 0)] + [_ZERO_NUMERATORS] * m
    pivots = []  # (p, N(pi), conj(pi), b)
    while True:
        for p, norm, conj, b in pivots:
            if row[p] != _ZERO_NUMERATORS:
                g = _qmul(row[p], conj)
                row = [tuple(norm * s - t for s, t in zip(x, _qmul(g, y))) for x, y in zip(row, b)]
        content = gcd(*(s for x in row for s in x))
        if content > 1:
            row = [tuple(s // content for s in x) for x in row]
        p = next((t for t in range(m) if row[t] != _ZERO_NUMERATORS), None)
        if p is None:
            comb = row[m : m + len(pivots) + 1]
            return UPoly([_reduced(*c, comb[-1][0]) for c in comb])
        w, x, y, z = row[p]
        pivots.append((p, w * w + x * x + y * y + z * z, (w, -x, -y, -z), row))
        shifted = [tuple(d * s for s in x) for x in row[m:-1]]
        nonzero = _nonzero(row[:m])
        row = [_int_dot(nonzero, col) for col in cols] + [_ZERO_NUMERATORS] + shifted


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
    if not roots:
        return RootNotFound(p, i, status is RootSearchStatus.COMPLETE)

    def branches():
        for a in roots:
            quotient, rem = p.divmod_left(UPoly.linear(a))
            if not rem.is_zero():
                raise InternalError("left root failed to split its polynomial")
            w = module.poly_action(i, quotient, v)
            if vec_is_zero(w):
                raise InternalError("eigenvector candidate collapsed to zero")
            yield _extract_from_seed(module, w, (*values, a))

    return _first_tuple(branches())


def _first_tuple(outcomes: Iterable[EigenTuple | RootNotFound]) -> EigenTuple | RootNotFound:
    """The first EigenTuple of outcomes, drawn one at a time, else the first
    RootNotFound: an InternalError while drawing one propagates at once."""
    first_missing = None
    for outcome in outcomes:
        if isinstance(outcome, EigenTuple):
            return outcome
        if first_missing is None:
            first_missing = outcome
    return first_missing


def _verify_eigen_tuple(module: ModulePresentation, tup: EigenTuple):
    if vec_is_zero(tup.v):
        raise InternalError("eigen tuple has a zero vector")
    for i in range(module.nvars):
        if module.act(i, tup.v) != tuple(tup.point[i] * c for c in tup.v):
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
    return _first_tuple(_extract_from_seed(module, s) for s in seeds)
