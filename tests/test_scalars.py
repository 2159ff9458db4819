"""Quaternion arithmetic, centralizers, and constrained linear solving."""

from fractions import Fraction as F
from math import gcd, lcm
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
    _dot,
    _expand,
    _power,
    _qmul,
    centralizer_of_set,
    commutator,
    find_conjugator,
    left_linear_solve,
    left_rank,
)
from quatca.upoly import UPoly, root_space

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

    def test_repeated_squaring_counts_its_products(self):
        # The power starts from the lowest set bit's power, so n >= 1 takes
        # bit_length(n) - 1 squarings and popcount(n) - 1 other products,
        # none by one, and n = 0 returns one untouched.
        class Counted:
            def __init__(self, exponent, log):
                self.exponent, self.log = exponent, log

            def __mul__(self, other):
                self.log.append("square" if other is self else "multiply")
                return Counted(self.exponent + other.exponent, self.log)

        for n in range(300):
            log = []
            one = Counted(0, log)
            out = _power(Counted(1, log), n, one)
            if n == 0:
                assert out is one and log == []
                continue
            assert out.exponent == n
            assert log.count("square") == n.bit_length() - 1
            assert log.count("multiply") == bin(n).count("1") - 1
        assert Quat(1, 1) ** 5 == Quat(1, 1) * Quat(1, 1) * Quat(1, 1) * Quat(1, 1) * Quat(1, 1)


# An independent reference: quaternions as 4-tuples of Fraction.
def _ref_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def _ref_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _ref_scale(p, r):
    return tuple(a * r for a in p)


def _ref_mul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def _ref_norm(p):
    return sum((a * a for a in p), F(0))


def _ref_conjugate(p):
    return (p[0], -p[1], -p[2], -p[3])


def _ref_inverse(p):
    return _ref_scale(_ref_conjugate(p), 1 / _ref_norm(p))


def _ref_pow(p, exp):
    base = _ref_inverse(p) if exp < 0 else p
    out = (F(1), F(0), F(0), F(0))
    for _ in range(abs(exp)):
        out = _ref_mul(out, base)
    return out


def _reference_pairs():
    """Seeded (p, q, same) coordinate pairs of heights up to 10**12:
    independent denominators, equal denominators (q = p + an integral
    quaternion, marked `same`), and zero, integral and central entries."""
    rng = Random(4242)
    pairs = []
    for height in (1, 10, 10**3, 10**6, 10**12):
        def rat():
            return F(rng.randint(-height, height), rng.randint(1, height))

        for _ in range(12):
            p = tuple(rat() for _ in range(4))
            pairs.append((p, tuple(rat() for _ in range(4)), False))
            pairs.append((p, tuple(a + rng.randint(-height, height) for a in p), True))
        pairs.append(((F(0),) * 4, tuple(rat() for _ in range(4)), False))
        central = (rat(), F(0), F(0), F(0))
        pairs.append((central, tuple(F(rng.randint(-height, height)) for _ in range(4)), False))
    return pairs


def _assert_canonical(q):
    n, m = q._n, q._d
    assert type(m) is int and all(type(v) is int for v in n)
    assert m > 0 and gcd(*n, m) == 1
    if not any(n):
        assert (n, m) == ((0, 0, 0, 0), 1)


class TestQuatAgainstFractionReference:
    @pytest.mark.parametrize("p, q, same", _reference_pairs())
    def test_operations(self, p, q, same):
        a, b = Quat(*p), Quat(*q)
        assert (a._d == b._d) >= same
        results = [
            (a + b, _ref_add(p, q)),
            (a - b, _ref_sub(p, q)),
            (a * b, _ref_mul(p, q)),
            (b * a, _ref_mul(q, p)),
            (-a, _ref_scale(p, -1)),
            (a.conjugate(), _ref_conjugate(p)),
        ]
        for r in (0, 3, -7, F(5, 12), F(-10**12, 7)):
            results += [(a * r, _ref_scale(p, r)), (r * a, _ref_scale(p, r))]
            results += [(a + r, _ref_add(p, (r, 0, 0, 0))), (r - a, _ref_sub((r, 0, 0, 0), p))]
        for exp in range(-3 if any(p) else 0, 4):
            results.append((a**exp, _ref_pow(p, exp)))
        if any(p):
            results.append((a.inverse(), _ref_inverse(p)))
        for got, expected in results:
            _assert_canonical(got)
            assert got.coords() == expected
        assert a.norm() == _ref_norm(p) and type(a.norm()) is F

    def test_zero_is_canonical(self):
        a = Quat(F(3, 4), -2, F(1, 6), 5)
        for zero in (ZERO, Quat(), a - a, a * 0, 0 * a, Quat(F(0, 5)), -ZERO, ZERO.conjugate()):
            assert (zero._n, zero._d) == ((0, 0, 0, 0), 1)

    def test_equal_values_are_equal_with_equal_hashes(self):
        groups = [
            [Quat(F(2, 4)), Quat(F(1, 2)), Quat(2) * F(1, 4), F(1, 4) * Quat(2)],
            [Quat(F(1, 2)), Quat("1/2"), Quat(0.5), Quat.scalar(F(3, 6))],
            [Quat(1, F(-2, 6), 0, 3), Quat(F(3, 3), F(-1, 3), 0, F(6, 2))],
            [Quat(1, F(-1, 3), 0, 3), Quat(3, -1, 0, 9) * F(1, 3)],
            [Quat(F(1, 3), F(1, 3)) + Quat(F(2, 3), F(-1, 3)), ONE, Quat(1), Quat.scalar(F(7, 7))],
        ]
        for group in groups:
            for q in group:
                assert q == group[0] and hash(q) == hash(group[0])
                assert (q._n, q._d) == (group[0]._n, group[0]._d)
        assert Quat(F(1, 2), 1) != Quat(F(1, 2))

    def test_equality_with_int_and_fraction(self):
        assert Quat(3) == 3 and 3 == Quat(3)
        assert Quat(F(6, 4)) == F(3, 2) and F(3, 2) == Quat(F(3, 2))
        assert ZERO == 0 and ZERO == F(0)
        assert Quat(F(3, 2), 1) != F(3, 2)
        assert Quat(2) != F(1, 2) and Quat(F(1, 2)) != 1
        assert Quat(0, 1) != 0

    def test_surface_is_fraction(self):
        for q in (Quat(1, 2, 3, 4), Quat(F(1, 2), 0, F(-3, 4), 5), ZERO):
            assert all(type(v) is F for v in (q.w, q.x, q.y, q.z))
            assert all(type(v) is F for v in q.coords())
            assert q.coords() == (q.w, q.x, q.y, q.z)
            assert type(q.scalar_part()) is F

    @pytest.mark.parametrize(
        "q, text, rep",
        [
            (Quat(1, F(-1, 2), 0, 3), "1 - 1/2i + 3k",
             "Quat(Fraction(1, 1), Fraction(-1, 2), Fraction(0, 1), Fraction(3, 1))"),
            (ZERO, "0", "Quat(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"),
            (Quat(F(-7, 3), 0, 1, F(-1, 5)), "-7/3 + j - 1/5k",
             "Quat(Fraction(-7, 3), Fraction(0, 1), Fraction(1, 1), Fraction(-1, 5))"),
            (Quat(0, 0, 0, -1), "-k",
             "Quat(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(-1, 1))"),
        ],
    )
    def test_str_and_repr(self, q, text, rep):
        assert str(q) == text
        assert repr(q) == rep

    def test_immutable(self):
        q = Quat(1, 2, 3, 4)
        for name in ("w", "x", "y", "z", "_n", "_d", "other"):
            with pytest.raises(AttributeError):
                setattr(q, name, 0)
        assert q == Quat(1, 2, 3, 4)


class TestDot:
    def test_equals_the_sum_of_products(self):
        # Mixed denominators, zero entries and large numerators: one integer
        # sum reduced once is the canonical sum of the products.
        rng = Random(41)

        def entry():
            roll = rng.random()
            if roll < 0.2:
                return ZERO
            if roll < 0.3:
                return Quat(*(rng.randint(-(10**30), 10**30) for _ in range(4)))
            return Quat(*(F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 35])) for _ in range(4)))

        for _ in range(300):
            n = rng.randint(0, 5)
            left, right = [entry() for _ in range(n)], [entry() for _ in range(n)]
            out = _dot(left, right)
            _assert_canonical(out)
            assert out == sum((p * q for p, q in zip(left, right)), ZERO)

    def test_keeps_the_order_of_each_product(self):
        assert _dot([I, J], [J, K]) == I * J + J * K == Quat(0, 1, 0, 1)
        assert _dot([J, K], [I, J]) == Quat(0, -1, 0, -1)
        assert _dot([], []) == ZERO


class TestQmul:
    def test_equals_the_numerators_of_the_quat_product(self):
        # Integer 4-tuples with zeros, negatives and 200-bit entries: the
        # shared product is Quat.__mul__'s, whose denominator stays 1.
        rng = Random(43)

        def entry():
            roll = rng.random()
            if roll < 0.25:
                return 0
            if roll < 0.5:
                return rng.randint(-(2**200), 2**200)
            return rng.randint(-9, 9)

        for _ in range(500):
            x, y = tuple(entry() for _ in range(4)), tuple(entry() for _ in range(4))
            product = Quat(*x) * Quat(*y)
            assert product._d == 1
            assert _qmul(x, y) == product._n

    def test_keeps_the_order_of_the_factors(self):
        assert _qmul((0, 1, 0, 0), (0, 0, 1, 0)) == (0, 0, 0, 1)
        assert _qmul((0, 0, 1, 0), (0, 1, 0, 0)) == (0, 0, 0, -1)


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
                assert desc.contains(Quat(*vec))

    def test_equal_as_subrings_with_equal_hashes(self):
        for u in (I, Quat(0, 2, -1, 3), Quat(0, 0, F(2, 3), F(-1, 5))):
            c = Centralizer.quadratic(u)
            for v in (u * -2, u * F(1, 3)):
                assert c == Centralizer.quadratic(v)
                assert hash(c) == hash(Centralizer.quadratic(v))
        assert Centralizer.quadratic(I) != Centralizer.quadratic(J)
        assert Centralizer.quadratic(I) != Centralizer.center()
        assert Centralizer.full() == Centralizer.full()

    def test_generators_of_one_field_give_equal_centralizers(self):
        assert Centralizer.quadratic(I) == Centralizer.quadratic(Quat(0, 2))
        assert centralizer_of_set([I]) == centralizer_of_set([Quat(3, 2)])
        over_2i = root_space(UPoly.from_central([4, 0, 1]), Quat(0, 2)).over
        assert over_2i == root_space(UPoly.from_central([1, 0, 1]), I).over

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
    # Membership is read from the numerators, and `element` builds a member
    # from explicit coordinates in the subring's basis.

    def test_quadratic_readout(self):
        assert Centralizer.quadratic(I).contains(Quat(1, 2))
        assert Centralizer.quadratic(I).element([1, 2]) == Quat(1, 2)
        # Unequal denominators, and a generator with no i part:
        # q = 1/2 + 3/14*u.
        c = Centralizer.quadratic(Quat(0, 0, F(2, 3), F(-1, 5)))
        q = Quat(F(1, 2), 0, F(1, 7), F(-3, 70))
        assert c.contains(q)
        assert c.element([F(1, 2), F(3, 14)]) == q
        assert not c.contains(q + I) and not c.contains(Quat(0, 0, F(2, 3), F(1, 5)))

    def test_outside_quadratic(self):
        assert not Centralizer.quadratic(I).contains(J)
        assert not Centralizer.quadratic(I).contains(Quat(1, 1, 0, F(1, 9)))

    def test_full_readout(self):
        assert Centralizer.full().contains(K)
        assert Centralizer.full().element([0, 0, 0, 1]) == K
        assert Centralizer.full().element([F(1, 2), -1, 0, F(3, 4)]) == Quat(F(1, 2), -1, 0, F(3, 4))

    def test_center(self):
        assert Centralizer.center().contains(Quat(F(5, 3)))
        assert Centralizer.center().element([F(5, 3)]) == Quat(F(5, 3))
        assert not Centralizer.center().contains(I)


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
    # The same shapes with int entries: rows scaled to integers, and rows
    # with about half of their integral entries given as int.
    entry_rng = Random(2025)
    for rows, ncols in cases[3::4]:
        cases.append((_integral(rows), ncols))
        cases.append((_mixed(rows, entry_rng), ncols))
    return cases


def _integral(rows):
    """Each row times the lcm of its denominators, as plain ints."""
    return [[int(v * lcm(*(x.denominator for x in row))) for v in row] for row in rows]


def _mixed(rows, rng):
    """The rows with about half of their integral entries given as int."""
    return [
        [int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in row] for row in rows
    ]


def _copying_rref(rows, ncols):
    """`linalg.rref` before it eliminated in place, kept as the oracle: every
    step builds new row dicts, with the same pivot choice, cross-
    multiplication and content division."""

    def primitive(row):
        g = gcd(*row.values())
        return {j: v // g for j, v in row.items()} if g > 1 else row

    def integer_row(row):
        nonzero = [(j, v.numerator, v.denominator) for j, v in enumerate(row) if v]
        scale = lcm(*(d for _, _, d in nonzero))
        return primitive({j: n * (scale // d) for j, n, d in nonzero})

    def eliminate(row, pivot_row, c):
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
        return primitive(out)

    width = len(rows[0]) if rows else 0
    pending = [integer_row(row) for row in rows]
    reduced = []
    for c in range(ncols):
        candidates = [k for k, row in enumerate(pending) if c in row]
        if not candidates:
            continue
        pivot_row = pending.pop(min(candidates, key=lambda k: len(pending[k])))
        pending = [eliminate(row, pivot_row, c) if c in row else row for row in pending]
        reduced = [(pc, eliminate(row, pivot_row, c) if c in row else row) for pc, row in reduced]
        reduced.append((c, pivot_row))
        if not pending:
            break
    out = [[F(row[j], row[c]) if j in row else F(0) for j in range(width)] for c, row in reduced]
    out += [[F(row[j]) if j in row else F(0) for j in range(width)] for row in pending]
    return out, [c for c, _ in reduced]


def _sparse_integer_cases():
    """Taller, sparse systems like the certificate lifts: integer entries
    up to 40, augmented by a consistent or a random column, with repeated
    rows making some rank-deficient."""
    rng = Random(2026)
    cases = []
    for _ in range(12):
        nrows, ncols = rng.randint(8, 20), rng.randint(6, 16)
        rows = [[rng.randint(-40, 40) if rng.random() < 0.3 else 0 for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            rows[a] = [x + 3 * y for x, y in zip(rows[a], rows[b])] if a != b else rows[a]
        if rng.random() < 0.5:
            x0 = [rng.randint(-3, 3) for _ in range(ncols)]
            target = [sum(v * x for v, x in zip(row, x0)) for row in rows]
        else:
            target = [rng.randint(-9, 9) for _ in rows]
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

    @pytest.mark.parametrize("rows, ncols", _oracle_cases())
    def test_int_fraction_and_mixed_entries_agree(self, rows, ncols):
        # rref reads each entry's numerator and denominator only, so equal
        # values give the same pivots and Fraction rows whatever their type.
        as_fraction = [[F(v) for v in row] for row in rows]
        expected = linalg.rref(as_fraction, ncols)
        assert linalg.rref(_mixed(as_fraction, Random(ncols)), ncols) == expected
        scaled = _integral(as_fraction)
        scaled_expected = linalg.rref([[F(v) for v in row] for row in scaled], ncols)
        assert linalg.rref(scaled, ncols) == scaled_expected
        for red, _ in (expected, scaled_expected):
            assert all(type(v) is F for row in red for v in row)

    @pytest.mark.parametrize("rows, ncols", _oracle_cases() + _sparse_integer_cases())
    def test_the_whole_output_equals_the_copying_eliminator(self, rows, ncols):
        # Every row, the rows past the pivots too: those are left scaled
        # as elimination leaves them, so they depend on each content
        # division.
        assert linalg.rref(rows, ncols) == _copying_rref(rows, ncols)

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
        # j * c = k forces c = -i, while c * j = k forces c = i.  The right
        # solve is the conjugate of the left solve of conj(c) * conj(j) = conj(k).
        c = Centralizer.quadratic(I)
        right = left_linear_solve([J.conjugate()], K.conjugate(), c)
        assert [k.conjugate() for k in right] == [-I]
        assert left_linear_solve([J], K, c) == [I]

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
    # The signed-permutation columns equal e*q for each basis unit e of c,
    # and shared ZERO entries stay the shared ZERO.  On the right, the
    # conjugated columns of the conjugated vectors are q*conj(e): c is
    # closed under conjugation, so a right-handed system is the conjugate
    # of a left-handed one.
    rng = Random(17)
    vectors = []
    for _ in range(20):
        vec = [
            Quat(*(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
            for _ in range(3)
        ]
        vec.insert(rng.randrange(4), ZERO)
        vectors.append(vec)
    columns = _expand(vectors, c)
    for column, vec in zip(columns, (vec for vec in vectors for _ in c.basis())):
        assert [q is ZERO for q in column] == [q is ZERO for q in vec]
    if left:
        assert columns == [[e * q for q in vec] for vec in vectors for e in c.basis()]
    else:
        conjugated = [[q.conjugate() for q in vec] for vec in vectors]
        mirrored = [[q.conjugate() for q in col] for col in _expand(conjugated, c)]
        assert mirrored == [
            [q * e.conjugate() for q in vec] for vec in vectors for e in c.basis()
        ]


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
        for a in (I, Quat(2, -1, 3, F(1, 2)), ONE, Quat(F(-3, 4)), ZERO):
            r = find_conjugator(a, a)
            assert r is not None and r and r * a * r.inverse() == a

    def test_i_to_j(self):
        # The last two pairs have opposite pure parts, where u + v vanishes.
        for a, b in ((I, J), (I, -I), (Quat(1, 1, 2, 3), Quat(1, -1, -2, -3))):
            r = find_conjugator(a, b)
            assert r is not None and r * a * r.inverse() == b

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
