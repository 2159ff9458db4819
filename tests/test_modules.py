"""Module presentations: commutation checked at construction, annihilators,
and eigen-tuple extraction, including the honest root-not-found outcome."""

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
)
from quatca.mpoly import MPoly, point_ideal
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
