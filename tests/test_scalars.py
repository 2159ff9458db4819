"""Quaternion arithmetic, centralizers, and constrained linear solving."""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from quatca import linalg
from quatca.scalars import (
    BASIS,
    Centralizer,
    I,
    J,
    K,
    ONE,
    Quat,
    ZERO,
    _expand,
    centralizer_of_set,
    commutator,
    find_conjugator,
    left_linear_solve,
    left_rank,
    right_linear_solve,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10)
quats = st.builds(Quat, rationals, rationals, rationals, rationals)


class TestQuatArithmetic:
    def test_defining_relations(self):
        assert I * J == K
        assert J * K == I
        assert K * I == J
        assert I * I == J * J == K * K == Quat(-1)

    def test_inverse_of_one_plus_i(self):
        assert Quat(1, 1).inverse() == Quat(F(1, 2), F(-1, 2))

    def test_conjugate_antihomomorphism_on_units(self):
        assert (I * J).conjugate() == J.conjugate() * I.conjugate() == -K

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_norm_zero_iff_zero(self):
        assert ZERO.norm() == 0
        assert Quat(0, 0, F(1, 7), 0).norm() == F(1, 49)

    @settings(max_examples=80, deadline=None)
    @given(quats, quats, quats)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @settings(max_examples=80, deadline=None)
    @given(quats, quats)
    def test_conjugation_and_norm(self, a, b):
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert (a * b).norm() == a.norm() * b.norm()

    @settings(max_examples=50, deadline=None)
    @given(quats)
    def test_inverse_exact(self, a):
        if a:
            assert a * a.inverse() == ONE
            assert a.inverse() * a == ONE

    def test_powers(self):
        assert I**3 == -I
        assert Quat(1, 1) ** 0 == ONE
        assert Quat(1, 1) ** -1 == Quat(1, 1).inverse()


class TestCommutator:
    def test_unit_commutator(self):
        assert commutator(I, J) == Quat(0, 0, 0, 2)

    def test_self_commutator(self):
        a = Quat(F(1, 3), 2, -1, 5)
        assert commutator(a, a) == ZERO

    def test_center_commutes(self):
        assert commutator(I, Quat(F(3, 2))) == ZERO


class TestCentralizer:
    def test_central_element_gives_full_ring(self):
        assert centralizer_of_set([Quat(F(3, 2))]).kind == "full"
        assert centralizer_of_set([]).kind == "full"

    def test_single_noncentral_gives_quadratic(self):
        assert centralizer_of_set([I]) == Centralizer.quadratic(I)
        mixed = Quat(5, 0, 2, 0)
        assert centralizer_of_set([mixed]) == Centralizer.quadratic(Quat(0, 0, 2, 0))

    def test_two_skew_elements_give_center(self):
        assert centralizer_of_set([I, J]).kind == "center"

    def test_against_commutation_linear_system(self):
        # Independent route: the commutation constraints as a raw rational
        # system, solved for its nullspace.
        for elements in ([I], [I, J], [Quat(2, 1, 1)], [Quat(1), Quat(0, 0, 0, 3)]):
            # each row spans all four unknowns of r
            rows = []
            for s in elements:
                per_basis = [commutator(e, s) for e in BASIS]
                for axis in range(4):
                    rows.append([q.coords()[axis] for q in per_basis])
            basis_vecs = linalg.nullspace(rows, 4)
            desc = centralizer_of_set(elements)
            assert len(basis_vecs) == desc.dim
            for vec in basis_vecs:
                assert desc.contains(Quat.from_coords(vec))

    def test_members_commute_and_outsiders_fail(self):
        rng = Random(7)
        for _ in range(200):
            elements = [
                Quat(*(F(rng.randint(-5, 5)) for _ in range(4)))
                for _ in range(rng.randint(0, 3))
            ]
            desc = centralizer_of_set(elements)
            member = sum(
                (e * Quat.scalar(rng.randint(-3, 3)) for e in desc.basis()), ZERO
            )
            assert all(commutator(member, s) == ZERO for s in elements)
            outsider = Quat(*(F(rng.randint(-5, 5)) for _ in range(4)))
            if not desc.contains(outsider):
                assert any(commutator(outsider, s) != ZERO for s in elements)


class TestCoords:
    def test_quadratic_readout(self):
        assert Centralizer.quadratic(I).coords(Quat(1, 2)) == [1, 2]

    def test_outside_quadratic(self):
        assert Centralizer.quadratic(I).coords(J) is None
        assert not Centralizer.quadratic(I).contains(J)

    def test_full_readout(self):
        assert Centralizer.full().coords(K) == [0, 0, 0, 1]

    def test_center(self):
        assert Centralizer.center().coords(Quat(F(5, 3))) == [F(5, 3)]
        assert Centralizer.center().coords(I) is None


class TestLinearSolveRat:
    def test_identity(self):
        sol = linalg.solve([[F(1), F(0)], [F(0), F(1)]], [F(3), F(7)])
        assert sol == [3, 7]

    def test_zero_matrix_inconsistent(self):
        assert linalg.solve([[F(0)], [F(0)]], [F(1), F(0)]) is None

    def test_rank_one_system_with_nullspace(self):
        rows = [[F(1), F(1)], [F(2), F(2)]]
        sol = linalg.solve(rows, [F(3), F(6)])
        basis = linalg.nullspace(rows, 2)
        assert sol is not None
        assert sol[0] + sol[1] == 3
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0 and any(v)


def _rand_matrix(rng, nrows, ncols, rank=None):
    """Sparse-ish random rational matrix; with `rank`, a product of an
    nrows x rank and a rank x ncols matrix, so its rank is at most that."""
    def entry():
        if rng.random() < 0.4:
            return F(0)
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rank == 0:
        return [[F(0)] * ncols for _ in range(nrows)]
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((l * r for l, r in zip(row, col)), F(0)) for col in zip(*right)] for row in left]


def _oracle_cases():
    """(rows, ncols) for tall, wide, square, rank-deficient, repeated-row
    and zero-row shapes, plain and augmented by one column."""
    rng = Random(2024)
    cases = [([], 0), ([], 3), ([[F(0)] * 3] * 2, 3)]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.choice((None, None, rng.randint(0, min(nrows, ncols))))
        rows = _rand_matrix(rng, nrows, ncols, rank)
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), list(rows[rng.randrange(len(rows))]))
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [F(0)] * ncols)
        cases.append((rows, ncols))
        if rng.random() < 0.5:
            x0 = [F(rng.randint(-3, 3)) for _ in range(ncols)]
            target = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
        else:
            target = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows]
        cases.append(([row + [t] for row, t in zip(rows, target)], ncols))
    return cases


class TestRrefOracle:
    """`linalg.rref`, `solve` and `nullspace` against sympy's `Matrix.rref`."""

    @pytest.mark.parametrize("rows, ncols", _oracle_cases())
    def test_against_sympy(self, rows, ncols):
        import sympy

        red, pivots = linalg.rref(rows, ncols)
        assert len(red) == len(rows)
        width = len(rows[0]) if rows else ncols
        a_part = sympy.Matrix(len(rows), ncols, [v for row in rows for v in row[:ncols]])
        expected, expected_pivots = a_part.rref()
        assert pivots == list(expected_pivots)
        assert [row[:ncols] for row in red] == expected.tolist()
        if width == ncols:
            basis = linalg.nullspace(rows, ncols)
            assert len(basis) == ncols - len(pivots)
            assert sympy.Matrix(basis).rank() == len(basis)
            for vec in basis:
                assert all(sum((a * x for a, x in zip(row, vec)), F(0)) == 0 for row in rows)
            return
        matrix, target = [row[:ncols] for row in rows], [row[ncols] for row in rows]
        full, full_pivots = sympy.Matrix(rows).rref()
        consistent = ncols not in full_pivots
        sol = linalg.solve(matrix, target, ncols)
        assert (sol is not None) == consistent
        if consistent:
            assert [row[ncols] for row in red] == full.col(ncols).T.tolist()[0]
            assert all(sol[c] == 0 for c in range(ncols) if c not in pivots)
            for row, t in zip(matrix, target):
                assert sum((a * x for a, x in zip(row, sol)), F(0)) == t

    def test_row_reducing_to_zero_with_a_nonzero_augmented_entry(self):
        # x + 2y = 3 and 2x + 4y = 7: the second row's A-part vanishes, 7 - 6 does not.
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
        red, pivots = linalg.rref(rows, 2)
        assert pivots == [0]
        assert red[0][:2] == [1, 2] and red[1][:2] == [0, 0]
        assert red[1][2] != 0
        assert linalg.solve([row[:2] for row in rows], [F(3), F(7)]) is None


class TestSolveOverCentralizer:
    def test_j_not_reachable_over_gaussian(self):
        assert left_linear_solve([ONE], J, Centralizer.quadratic(I)) is None

    def test_ij_equals_k(self):
        sol = left_linear_solve([ONE, J], K, Centralizer.quadratic(I))
        assert sol == [ZERO, I]

    def test_zero_target(self):
        assert left_linear_solve([ONE], ZERO, Centralizer.full()) == [ZERO]

    def test_right_version_sides_matter(self):
        # j * c = k forces c = -i, while c * j = k forces c = i.
        assert right_linear_solve([J], K, Centralizer.quadratic(I)) == [-I]
        assert left_linear_solve([J], K, Centralizer.quadratic(I)) == [I]

    def test_solution_reconstructs_exactly(self):
        rng = Random(11)
        for _ in range(150):
            c = [
                Centralizer.full(),
                Centralizer.center(),
                Centralizer.quadratic(Quat(0, 1, 2)),
            ][rng.randrange(3)]
            vectors = [
                Quat(*(F(rng.randint(-4, 4)) for _ in range(4)))
                for _ in range(rng.randint(1, 3))
            ]
            target = Quat(*(F(rng.randint(-4, 4)) for _ in range(4)))
            sol = left_linear_solve(vectors, target, c)
            if sol is None:
                # cross-check with a brute rank computation over the rationals
                stacked = left_rank(vectors, c)
                assert left_rank(vectors + [target], c) == stacked + 1
            else:
                assert sum((k * v for k, v in zip(sol, vectors)), ZERO) == target
                assert all(c.contains(k) for k in sol)


@pytest.mark.parametrize(
    "c",
    [
        Centralizer.full(),
        Centralizer.quadratic(Quat(0, 1, -2, 3)),
        Centralizer.quadratic(I),
        Centralizer.center(),
    ],
)
@pytest.mark.parametrize("left", [True, False])
def test_expansion_matches_unit_products(c, left):
    # The signed-permutation columns equal e*q (q*e on the right) for each
    # basis unit e of c, and shared ZERO entries stay the shared ZERO.
    rng = Random(17)
    vectors = []
    for _ in range(20):
        vec = [
            Quat(*(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
            for _ in range(3)
        ]
        vec.insert(rng.randrange(4), ZERO)
        vectors.append(vec)
    columns = _expand(vectors, c, left)
    expected = [
        [e * q if left else q * e for q in vec] for vec in vectors for e in c.basis()
    ]
    assert columns == expected
    for column, vec in zip(columns, (vec for vec in vectors for _ in c.basis())):
        assert [q is ZERO for q in column] == [q is ZERO for q in vec]


@pytest.mark.parametrize(
    "vectors, c, rank",
    [
        ([], Centralizer.full(), 0),
        ([ONE, I], Centralizer.quadratic(I), 1),
        ([ONE, I], Centralizer.center(), 2),
        ([ONE, J], Centralizer.full(), 1),
        ([I, Quat(0, 2)], Centralizer.center(), 1),
    ],
)
def test_left_rank(vectors, c, rank):
    assert left_rank(vectors, c) == rank


class TestConjugator:
    def test_self_conjugacy(self):
        r = find_conjugator(I, I)
        assert r is not None and r and r * I * r.inverse() == I

    def test_i_to_j(self):
        r = find_conjugator(I, J)
        assert r is not None and r * I * r.inverse() == J

    def test_distinct_real_parts(self):
        assert find_conjugator(I, Quat(1, 1)) is None

    def test_random_witness_or_certified_failure(self):
        rng = Random(3)
        for _ in range(200):
            a = Quat(*(F(rng.randint(-5, 5)) for _ in range(4)))
            if rng.random() < 0.5:
                r0 = Quat(*(F(rng.randint(-3, 3)) for _ in range(4)))
                b = r0 * a * r0.inverse() if r0 else a
            else:
                b = Quat(*(F(rng.randint(-5, 5)) for _ in range(4)))
            r = find_conjugator(a, b)
            if r is None:
                assert (
                    a.scalar_part() != b.scalar_part()
                    or a.pure_part().norm() != b.pure_part().norm()
                )
            else:
                assert r and r * a * r.inverse() == b
