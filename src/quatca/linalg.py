"""Exact Gauss-Jordan elimination over the rationals, done in integers.

Matrices come in as lists of rows of `int` or `Fraction` entries, mixed
freely, and go out as rows of `Fraction`.  Inside `rref`, each row is
scaled by the lcm of its denominators and kept as a sparse `{column: int}`
dict; rows are combined by cross-multiplication and divided by the gcd of
their entries, and each pivot row is divided by its pivot only at the
end.  This is fraction-free elimination (Bareiss 1968; Nakos, Turner &
Williams 1997) with a division by each row's gcd in place of Bareiss's
division by the previous pivot.  All arithmetic is exact, so a pivot is
any nonzero entry and no tolerance appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# A matrix row; input entries may be `int` or `Fraction`.
Row = list[int | Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row: Row) -> dict[int, int]:
    """The nonzero entries of a rational row scaled to coprime integers."""
    out = {j: v for j, v in enumerate(row) if v}
    if any(type(v) is not int for v in out.values()):
        scale = lcm(*(v.denominator for v in out.values()))
        out = {j: v.numerator * (scale // v.denominator) for j, v in out.items()}
    _divide_content(out)
    return out


def _divide_content(row: dict[int, int]) -> None:
    """Divide the row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> None:
    """row <- p*row - f*pivot_row in place (p, f the two entries in column
    c, over their gcd), which is zero in column c, then divided by the gcd
    of its entries."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in pivot_row.items():
        value = row.get(j, 0) - f * v
        if value:
            row[j] = value
        else:
            del row[j]
    _divide_content(row)


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form restricted to the first `ncols` columns.

    Entries may be `int` or `Fraction`; the reduced rows hold `Fraction`.
    Rows may be wider than `ncols` (augmented systems); the extra columns
    follow the row operations.  Returns the reduced rows, pivot rows first
    in pivot order, and the pivot column indices.  The pivot columns and
    the reduced first `ncols` columns are unique, and so are the extra
    columns when every row past the pivots is zero in them (a consistent
    augmented system).  Each step eliminates the rows in place.
    """
    width = len(rows[0]) if rows else 0
    pending = [_integer_row(row) for row in rows]
    reduced: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        # Any row nonzero in column c may pivot; the sparsest keeps fill low.
        candidates = [(len(row), k) for k, row in enumerate(pending) if c in row]
        if not candidates:
            continue
        pivot_row = pending.pop(min(candidates)[1])
        for row in pending:
            if c in row:
                _eliminate(row, pivot_row, c)
        for _, row in reduced:
            if c in row:
                _eliminate(row, pivot_row, c)
        reduced.append((c, pivot_row))
        if not pending:
            break
    out = []
    for c, row in reduced:
        p = row[c]
        out.append([Fraction(row[j], p) if j in row else _ZERO for j in range(width)])
    for row in pending:
        out.append([Fraction(row[j]) if j in row else _ZERO for j in range(width)])
    return out, [c for c, _ in reduced]


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
