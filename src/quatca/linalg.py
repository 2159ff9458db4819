"""Exact Gaussian elimination over the rationals.

Matrices are lists of rows of `Fraction`; all arithmetic is exact, so a
pivot is any nonzero entry and no tolerance appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form restricted to the first `ncols` columns.

    Rows may be wider than `ncols` (augmented systems); the extra columns
    follow the row operations.  Returns the reduced rows and the pivot
    column indices.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = _ONE / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c] != 0:
                factor = mat[k][c]
                mat[k] = [a - factor * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def solve(rows: list[Row], target: list[Fraction], ncols: int | None = None) -> list[Fraction] | None:
    """One exact solution of `rows * x = target`, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [t] for row, t in zip(rows, target)]
    if len(rows) != len(target):
        raise ValueError("matrix/vector size mismatch")
    red, pivots = rref(aug, ncols)
    for row in red[len(pivots):]:
        if row[ncols] != 0:
            return None
    x = [_ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def nullspace(rows: list[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix, as a list of vectors."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for i, c in enumerate(pivots):
            vec[c] = -red[i][free]
        basis.append(vec)
    return basis

