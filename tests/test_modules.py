"""Module presentations: commutation checked at construction, annihilators,
and eigen-tuple extraction, including the honest root-not-found outcome."""

from fractions import Fraction
from random import Random

import pytest

from quatca import modules
from quatca.errors import InternalError, InvalidInput
from quatca.modules import (
    EigenTuple,
    ModulePresentation,
    RootNotFound,
    annihilator_minpoly,
    find_eigen_tuple,
    mat_identity,
    mat_mul,
)
from quatca.mpoly import CommutingPoint, MPoly, point_ideal
from quatca.randgen import rand_mpoly, rand_module, rand_quat, rand_unimodular
from quatca.scalars import Centralizer, I, J, K, ONE, Quat, ZERO, solve_combination
from quatca.upoly import UPoly

ROTATION = ModulePresentation(2, [[[ZERO, -ONE], [ONE, ZERO]]])  # squares to -1
STRETCH = ModulePresentation(2, [[[ZERO, Quat(2)], [ONE, ZERO]]])  # squares to 2
DIAG_IJ = ModulePresentation(2, [[[I, ZERO], [ZERO, J]]])


class TestPresentation:
    def test_diagonal_pair_commutes(self):
        m = ModulePresentation(
            2,
            [
                [[I, ZERO], [ZERO, I]],
                [[Quat(1, 1), ZERO], [ZERO, Quat(2)]],
            ],
        )
        assert m.nvars == 2

    def test_matrix_with_its_square(self):
        a = ROTATION.mats[0]
        from quatca.modules import mat_mul

        m = ModulePresentation(2, [a, mat_mul(a, a)])
        assert m.mats == (a, ((-ONE, ZERO), (ZERO, -ONE)))

    def test_noncommuting_scalars_reported(self):
        with pytest.raises(InvalidInput) as err:
            ModulePresentation(1, [[[I]], [[J]]])
        assert str(err.value) == "actions 1 and 2 do not commute"

    def test_every_noncommuting_pair_reported_in_order(self):
        with pytest.raises(InvalidInput) as err:
            ModulePresentation(1, [[[I]], [[J]], [[K]]])
        assert str(err.value) == (
            "actions 1 and 2 do not commute; actions 1 and 3 do not commute; "
            "actions 2 and 3 do not commute"
        )

    def test_shape_validation(self):
        with pytest.raises(InvalidInput):
            ModulePresentation(2, [[[I]]])

    def test_vectors_of_another_length_are_refused(self):
        module = ModulePresentation(2, [[[I, ZERO], [ZERO, ONE]]])
        for v in ((ONE,), (ONE, ONE, ONE)):
            for act in (
                lambda: module.act(0, v),
                lambda: module.poly_action(0, UPoly([ONE, ONE]), v),
                lambda: annihilator_minpoly(module, v, 0),
            ):
                with pytest.raises(InvalidInput) as err:
                    act()
                assert str(err.value) == f"vector of length {len(v)} for a module of dimension 2"


def _oracle_product(a, b):
    """The quaternion matrix product, entry by entry through `Quat`."""
    m = len(a)
    return tuple(
        tuple(sum((a[r][t] * b[t][c] for t in range(m)), ZERO) for c in range(m))
        for r in range(m)
    )


def _rational_quat(rng):
    return Quat(*(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 12])) for _ in range(4)))


def _commuting_pairs(rng):
    """Seeded pairs (A1, A2) that commute by construction, with rational
    entries over mixed denominators: A2 a rational polynomial in A1, and
    conjugated diagonal sums over points of Q(i)."""
    for _ in range(30):
        m = rng.randint(1, 5)
        a1 = tuple(
            tuple(_rational_quat(rng) if rng.random() < 0.7 else ZERO for _ in range(m))
            for _ in range(m)
        )
        c0 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        a2 = tuple(tuple(c0 * ONE if r == c else ZERO for c in range(m)) for r in range(m))
        power = mat_identity(m)
        for _ in range(rng.randint(1, 3)):
            power = mat_mul(power, a1)
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 9))
            a2 = tuple(tuple(x + coeff * y for x, y in zip(r2, rp)) for r2, rp in zip(a2, power))
        yield a1, a2
    for _ in range(30):
        m = rng.randint(1, 5)
        u, u_inv = rand_unimodular(rng, m)
        values = [
            [Quat(Fraction(rng.randint(-4, 4), rng.randint(1, 6)), Fraction(rng.randint(-4, 4), rng.randint(1, 6))) for _ in range(2)]
            for _ in range(m)
        ]
        a1, a2 = (
            mat_mul(mat_mul(u, tuple(tuple(values[r][i] if r == c else ZERO for c in range(m)) for r in range(m))), u_inv)
            for i in range(2)
        )
        yield a1, a2


class TestCommutationCheck:
    def test_accepts_and_rejects_as_the_quaternion_product(self):
        # Each pair commutes by construction; 1/7 added to one entry of A2
        # usually breaks it.  The check agrees with the oracle either way.
        rng = Random(29)
        broken = 0
        for a1, a2 in _commuting_pairs(rng):
            m = len(a1)
            r, c = rng.randrange(m), rng.randrange(m)
            bumped = tuple(
                tuple(x + Fraction(1, 7) if (s, t) == (r, c) else x for t, x in enumerate(row))
                for s, row in enumerate(a2)
            )
            for b in (a2, bumped):
                commute = _oracle_product(a1, b) == _oracle_product(b, a1)
                if commute:
                    module = ModulePresentation(m, [a1, b])
                    assert module.mats == (a1, b)
                    continue
                broken += 1
                with pytest.raises(InvalidInput) as err:
                    ModulePresentation(m, [a1, b])
                assert str(err.value) == "actions 1 and 2 do not commute"
            assert _oracle_product(a1, a2) == _oracle_product(a2, a1)
        assert broken >= 40

    def test_a_broken_pair_among_three(self):
        rng = Random(31)
        for a1, a2 in _commuting_pairs(rng):
            m = len(a1)
            a3 = mat_mul(a1, a2)
            bumped = tuple(
                tuple(x + Fraction(1, 7) if (s, t) == (m - 1, 0) else x for t, x in enumerate(row))
                for s, row in enumerate(a3)
            )
            expected = [
                f"actions {i} and {j} do not commute"
                for i, j, x, y in ((1, 2, a1, a2), (1, 3, a1, bumped), (2, 3, a2, bumped))
                if _oracle_product(x, y) != _oracle_product(y, x)
            ]
            if not expected:
                ModulePresentation(m, [a1, a2, bumped])
                continue
            with pytest.raises(InvalidInput) as err:
                ModulePresentation(m, [a1, a2, bumped])
            assert str(err.value) == "; ".join(expected)


class TestAnnihilator:
    def test_one_dimensional(self):
        m = ModulePresentation(1, [[[I]]])
        assert annihilator_minpoly(m, (ONE,), 0) == UPoly.linear(I)

    def test_diagonal_mixed_vector(self):
        p = annihilator_minpoly(DIAG_IJ, (ONE, ONE), 0)
        assert p == UPoly([ONE, ZERO, ONE])

    def test_rotation(self):
        p = annihilator_minpoly(ROTATION, (ONE, ZERO), 0)
        assert p == UPoly([ONE, ZERO, ONE])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInput):
            annihilator_minpoly(ROTATION, (ZERO, ZERO), 0)

    def test_minimality_and_annihilation(self):
        rng = Random(2)
        for _ in range(40):
            module, _ = rand_module(rng, 1, rng.randint(1, 4))
            v = tuple(
                Quat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(module.m)
            )
            if not any(v):
                continue
            p = annihilator_minpoly(module, v, 0)
            assert not any(module.poly_action(0, p, v))
            assert p.lead == ONE
            # nothing of smaller degree annihilates: for d < deg p, v*A^d is
            # no left combination over H of v, ..., v*A^(d-1)
            iterates = [v]
            for _ in range(1, p.degree):
                iterates.append(module.act(0, iterates[-1]))
                assert solve_combination(iterates[:-1], iterates[-1], Centralizer.full()) is None


def _mixed(rng, blocks):
    """The module whose action i is P*(B_1 + B_2 + ...)*P^-1 on the block
    diagonal sum of the blocks' i-th matrices, for a P made of rational
    elementary matrices."""
    m = sum(len(block[0]) for block in blocks)
    p, p_inv = mat_identity(m), mat_identity(m)
    for _ in range(2 * m):
        r, c = rng.sample(range(m), 2)
        lam = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        plus = [list(row) for row in mat_identity(m)]
        minus = [list(row) for row in mat_identity(m)]
        plus[r][c], minus[r][c] = Quat(lam), Quat(-lam)
        p, p_inv = mat_mul(p, plus), mat_mul(minus, p_inv)
    mats = []
    for i in range(len(blocks[0])):
        diag = [[ZERO] * m for _ in range(m)]
        offset = 0
        for block in blocks:
            for r, row in enumerate(block[i]):
                diag[offset + r][offset : offset + len(row)] = row
            offset += len(block[i])
        mats.append(mat_mul(mat_mul(p, diag), p_inv))
    return ModulePresentation(m, mats)


MIXED_BLOCKS = ModulePresentation(
    3,
    [
        [[Quat(v) for v in row] for row in mat]
        for mat in (
            [[3, 2, -2], [2, 3, -2], [2, 2, -1]],
            [[4, 5, -4], [5, 3, -3], [4, 3, -2]],
        )
    ],
)


def _first_dependence_by_prefixes(vectors):
    """The rational reference: one solve over the full ring for each prefix."""
    before = []
    for v in vectors:
        sol = solve_combination(before, v, Centralizer.full())
        if sol is not None:
            return sol
        before.append(v)
    return None


def _check_annihilator(module, v):
    """annihilator_minpoly for each action equals the reference built from
    the `module.act` iterates v, v*A, ..., v*A^m; returns the degrees."""
    degrees = []
    for i in range(module.nvars):
        iterates = [v]
        for _ in range(module.m):
            iterates.append(module.act(i, iterates[-1]))
        sol = _first_dependence_by_prefixes(iterates)
        p = annihilator_minpoly(module, v, i)
        assert p == UPoly([-c for c in sol] + [ONE])
        degrees.append(p.degree)
    return degrees


def _rational_vector(rng, m, height=6, dens=(1, 2, 3, 5, 12)):
    while True:
        v = tuple(
            Quat(*(Fraction(rng.randint(-height, height), rng.choice(dens)) for _ in range(4)))
            if rng.random() < 0.8
            else ZERO
            for _ in range(m)
        )
        if any(v):
            return v


def _triangular(rng, m):
    """A1 upper triangular with integer quaternions of height 2 on and above
    the diagonal, and A2 = A1^2 - A1."""
    a1 = tuple(
        tuple(rand_quat(rng, 2, integer=True) if c >= r else ZERO for c in range(m))
        for r in range(m)
    )
    square = mat_mul(a1, a1)
    a2 = tuple(tuple(x - y for x, y in zip(rs, r1)) for rs, r1 in zip(square, a1))
    return ModulePresentation(m, [a1, a2])


COMPANIONS = ([[0, 1], [2, 0]], [[0, 1, 0], [0, 0, 1], [2, 0, 0]])


class TestAnnihilatorAgainstPrefixSolves:
    # The integer Krylov elimination against one rational solve per prefix
    # of the iterates.

    def test_seeded_random_modules(self):
        rng = Random(30)
        degrees = []
        for _ in range(60):
            module, _ = rand_module(rng, rng.randint(1, 3), rng.randint(1, 6))
            v = tuple(rand_quat(rng, 3, integer=rng.random() < 0.5) for _ in range(module.m))
            if any(v):
                degrees += _check_annihilator(module, v)
        assert len(set(degrees)) >= 4

    def test_rational_entries_over_mixed_denominators(self):
        # The integer action is d*A, and most modules here have some d > 1.
        rng = Random(31)
        scaled = 0
        for a1, a2 in _commuting_pairs(rng):
            module = ModulePresentation(len(a1), [a1, a2])
            scaled += any(d > 1 for _, d in module._actions)
            _check_annihilator(module, _rational_vector(rng, module.m))
        assert scaled >= 40

    def test_thirty_digit_numerators(self):
        rng = Random(32)
        big = 10**30
        for _ in range(15):
            m = rng.randint(1, 4)
            a1 = [[_rational_vector(rng, 1, big, (1, big - 1))[0] for _ in range(m)] for _ in range(m)]
            module = ModulePresentation(m, [a1])
            _check_annihilator(module, _rational_vector(rng, m, big, (1, big - 1)))

    def test_mixed_blocks(self):
        rng = Random(33)
        for _ in range(20):
            blocks = []
            for n in range(rng.randint(1, 3)):
                # The first block has 2 or 3 rows, so that P mixes rows.
                companion = rng.choice(COMPANIONS if n == 0 else COMPANIONS + ([[1]],))
                size, value = len(companion), rng.randint(-3, 3)
                scalar = [[value if r == c else 0 for c in range(size)] for r in range(size)]
                blocks.append([[[Quat(v) for v in row] for row in mat] for mat in (scalar, companion)])
            module = _mixed(rng, blocks)
            _check_annihilator(module, _rational_vector(rng, module.m))
        for v in ((ONE, ZERO, ZERO), (ONE, I, J), (Quat(2, 0, 1), ZERO, K)):
            _check_annihilator(MIXED_BLOCKS, v)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    def test_triangular_family(self, m):
        rng = Random(m)
        module = _triangular(rng, m)
        first = tuple(ONE if c == 0 else ZERO for c in range(m))
        _check_annihilator(module, first)
        _check_annihilator(module, _rational_vector(rng, m))

    def test_degree_one_at_an_eigenvector(self):
        rng = Random(34)
        for _ in range(20):
            module, _ = rand_module(rng, 2, rng.randint(1, 5))
            out = find_eigen_tuple(module)
            q = rand_quat(rng, 3)
            if not q:
                continue
            v = tuple(q * c for c in out.v)
            assert _check_annihilator(module, v) == [1, 1]
            for i in range(2):
                assert annihilator_minpoly(module, v, i) == UPoly.linear(q * out.point[i] * q.inverse())

    def test_degree_m_at_a_cyclic_vector(self):
        # e_0 is cyclic for the companion matrix of a monic p, whose
        # annihilator is p itself, quaternion coefficients included.
        rng = Random(35)
        for m in range(1, 7):
            coeffs = [rand_quat(rng, 4, integer=m % 2 == 0) for _ in range(m)]
            companion = [[ONE if c == r + 1 else ZERO for c in range(m)] for r in range(m - 1)]
            companion.append([-c for c in coeffs])
            module = ModulePresentation(m, [companion])
            first = tuple(ONE if c == 0 else ZERO for c in range(m))
            assert _check_annihilator(module, first) == [m]
            assert annihilator_minpoly(module, first, 0) == UPoly(coeffs + [ONE])


class TestEigenTuple:
    def test_already_an_eigenvector(self):
        out = find_eigen_tuple(DIAG_IJ, (ONE, ZERO))
        assert isinstance(out, EigenTuple)
        assert out.v == (ONE, ZERO)
        assert out.point[0] == I

    def test_rotation_splits_over_the_quaternions(self):
        out = find_eigen_tuple(ROTATION, (ONE, ZERO))
        assert isinstance(out, EigenTuple)
        a = out.point[0]
        assert a * a == Quat(-1)
        assert ROTATION.act(0, out.v) == tuple(a * c for c in out.v)

    def test_root_not_found_is_honest(self):
        out = find_eigen_tuple(STRETCH, (ONE, ZERO))
        assert isinstance(out, RootNotFound)
        assert out.poly == UPoly.from_central([-2, 0, 1])

    def test_seed_restart_rescues_mixed_module(self):
        mixed = ModulePresentation(
            3,
            [
                [
                    [ZERO, Quat(2), ZERO],
                    [ONE, ZERO, ZERO],
                    [ZERO, ZERO, I],
                ]
            ],
        )
        out = find_eigen_tuple(mixed, (ONE, ZERO, ZERO))
        assert isinstance(out, EigenTuple)
        assert out.point[0] == I

    def test_every_root_class_is_tried(self):
        # P*(B + C)*P^-1 with P = [[1,0,1],[0,1,1],[1,1,1]]: on block B,
        # A1 = I and A2 has the eigenvalues +-sqrt(2); on block C, A1 = 3
        # and A2 = 5.  Every standard seed meets B, whose root 1 of A1
        # comes first, so only the second class of A1 reaches C.
        out = find_eigen_tuple(MIXED_BLOCKS)
        assert isinstance(out, EigenTuple)
        assert out.point == CommutingPoint([Quat(3), Quat(5)])
        assert out.v == (Quat(2), Quat(2), Quat(-2))
        # A seed that starts in C agrees.
        assert find_eigen_tuple(MIXED_BLOCKS, (ONE, ONE, -ONE)).point == out.point

    def test_the_first_failing_branch_is_reported(self):
        # A1 = diag(1, 1, 2, 2); A2 is a companion of x^2 - 2 on the first
        # block and of x^2 - 3 on the second.  From the seed (1, 0, 1, 0)
        # the branch of A1's root 1 meets x^2 - 2, and that of 2 x^2 - 3.
        a1 = [[Quat(v if r == c else 0) for c in range(4)] for r, v in enumerate((1, 1, 2, 2))]
        a2 = [[Quat(v) for v in row] for row in ([0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 3, 0])]
        out = find_eigen_tuple(ModulePresentation(4, [a1, a2]), (ONE, ZERO, ONE, ZERO))
        assert isinstance(out, RootNotFound)
        assert (out.poly, out.var_index) == (UPoly.from_central([-2, 0, 1]), 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mixed_blocks(self, seed):
        # Blocks without a common eigenvector over H_Q (A2 a companion of
        # x^2 - 2 or x^3 - 2, A1 a scalar) beside 1x1 blocks with rational
        # or quaternion values, mixed by a rational P.  A tuple exists
        # exactly when a 1x1 block is planted.
        rng = Random(seed)
        blocks = []
        for _ in range(rng.randint(1, 2)):
            companion = rng.choice(([[0, 1], [2, 0]], [[0, 1, 0], [0, 0, 1], [2, 0, 0]]))
            size, value = len(companion), rng.randint(-3, 3)
            scalar = [[value if r == c else 0 for c in range(size)] for r in range(size)]
            blocks.append([[[Quat(v) for v in row] for row in mat] for mat in (scalar, companion)])
        good = []
        for _ in range(rng.randint(0, 2)):
            second = Quat(rng.randint(-3, 3)) if rng.random() < 0.5 else Quat(rng.randint(-3, 3), rng.randint(1, 3))
            good.append([[[Quat(rng.randint(-3, 3))]], [[second]]])
        blocks += good
        rng.shuffle(blocks)
        module = _mixed(rng, blocks)
        out = find_eigen_tuple(module)
        if good:
            assert isinstance(out, EigenTuple), out
            assert [[[out.point[0]]], [[out.point[1]]]] in good
            for i in range(2):
                assert module.act(i, out.v) == tuple(out.point[i] * c for c in out.v)
        else:
            assert isinstance(out, RootNotFound)
            assert out.var_index == 1

    def test_internal_error_on_a_seed_propagates(self, monkeypatch):
        # A kernel fault on the first seed must not be hidden by a later
        # seed that succeeds.
        original = modules._extract_from_seed
        seen = []

        def faulty_first_seed(module, seed):
            seen.append(seed)
            if len(seen) == 1:
                raise InternalError("planted fault")
            return original(module, seed)

        monkeypatch.setattr(modules, "_extract_from_seed", faulty_first_seed)
        with pytest.raises(InternalError, match="planted fault"):
            find_eigen_tuple(DIAG_IJ, (ONE, ZERO))
        assert seen == [(ONE, ZERO)]

    def test_noncommuting_presentation_rejected(self):
        with pytest.raises(InvalidInput):
            find_eigen_tuple(ModulePresentation(1, [[[I]], [[J]]]))

    def test_bad_seed_rejected(self):
        with pytest.raises(InvalidInput):
            find_eigen_tuple(DIAG_IJ, (ZERO, ZERO))
        with pytest.raises(InvalidInput):
            find_eigen_tuple(DIAG_IJ, (ONE,))

    def test_round_trip_from_point(self):
        rng = Random(11)
        from quatca.randgen import rand_commuting_point

        for _ in range(60):
            pt = rand_commuting_point(rng, rng.randint(1, 3))
            module = ModulePresentation(1, [[[c]] for c in pt])
            out = find_eigen_tuple(module)
            assert isinstance(out, EigenTuple)
            assert out.point == pt

    def test_conjugated_direct_sums(self):
        rng = Random(13)
        for _ in range(40):
            nvars = rng.randint(1, 3)
            m = rng.randint(1, 4)
            module, _ = rand_module(rng, nvars, m)
            out = find_eigen_tuple(module)
            assert isinstance(out, EigenTuple)
            for i in range(nvars):
                assert module.act(i, out.v) == tuple(out.point[i] * c for c in out.v)
            # the point ideal annihilates the vector: random combinations of
            # its generators act as zero on v
            ideal = point_ideal(out.point)
            combo = MPoly(nvars, {})
            for g in ideal.gens:
                combo = combo + rand_mpoly(rng, nvars, 2, terms=2, height=2) * g
            acted = out.v
            total = tuple(ZERO for _ in range(m))
            for exps, coeff in combo.terms.items():
                current = out.v
                for i, e in enumerate(exps):
                    for _ in range(e):
                        current = module.act(i, current)
                total = tuple(t + coeff * c for t, c in zip(total, current))
            assert not any(total)
