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
from quatca.randgen import rand_mpoly, rand_module
from quatca.scalars import I, J, K, ONE, Quat, ZERO
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
            # nothing of smaller degree annihilates
            for smaller in range(1, p.degree):
                truncated = annihilator_minpoly(module, v, 0)
                assert truncated.degree == p.degree


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
