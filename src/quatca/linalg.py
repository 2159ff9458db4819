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
    nonzero = [(j, v.numerator, v.denominator) for j, v in enumerate(row) if v]
    scale = lcm(*(d for _, _, d in nonzero))
    return _primitive({j: n * (scale // d) for j, n, d in nonzero})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """p*row - f*pivot_row (p, f the two entries in column c, over their
    gcd), which is zero in column c, divided by the gcd of its entries."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = {j: p * v for j, v in row.items()}
    for j, v in pivot_row.items():
        value = out.get(j, 0) - f * v
        if value:
            out[j] = value
        else:
            del out[j]
    return _primitive(out)


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form restricted to the first `ncols` columns.

    Entries may be `int` or `Fraction`; the reduced rows hold `Fraction`.
    Rows may be wider than `ncols` (augmented systems); the extra columns
    follow the row operations.  Returns the reduced rows, pivot rows first
    in pivot order, and the pivot column indices.  The pivot columns and
    the reduced first `ncols` columns are unique, and so are the extra
    columns when every row past the pivots is zero in them (a consistent
    augmented system).
    """
    width = len(rows[0]) if rows else 0
    pending = [_integer_row(row) for row in rows]
    reduced: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        candidates = [k for k, row in enumerate(pending) if c in row]
        if not candidates:
            continue
        # Any row nonzero in column c may pivot; the sparsest keeps fill low.
        pivot_row = pending.pop(min(candidates, key=lambda k: len(pending[k])))
        pending = [_eliminate(row, pivot_row, c) if c in row else row for row in pending]
        reduced = [
            (pc, _eliminate(row, pivot_row, c) if c in row else row) for pc, row in reduced
        ]
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
