"""One-variable polynomial algebra: arithmetic, one-sided division, common
multiples, root classes, root spaces, and minimal/Wedderburn polynomials."""

from fractions import Fraction as F
from random import Random

import pytest

from quatca.errors import InvalidInput
from quatca.randgen import rand_nonzero_quat, rand_pure_quat, rand_quat, rand_upoly
from quatca.scalars import (
    Centralizer,
    I,
    J,
    K,
    ONE,
    Quat,
    ZERO,
    centralizer_of_set,
    find_conjugator,
)
from quatca.upoly import (
    Isolated,
    RootSearchStatus,
    Sphere,
    UPoly,
    companion,
    gcrd,
    lclm,
    left_roots,
    minimal_left_poly,
    minimal_right_poly,
    right_roots,
    root_space,
    root_space_dim,
    roots_in_centralizer,
    sphere_member_in,
    wedderburn_lclm,
    _gcrd_combination,
)
from test_acceptance import _class_dimension_by_raw_system

X2P1 = UPoly([ONE, ZERO, ONE])  # x^2 + 1


class TestArithmetic:
    def test_product_of_linear_factors(self):
        p = UPoly.linear(I) * UPoly.linear(J)
        assert p == UPoly([K, -(I + J), ONE])

    def test_multiplicative_identity(self):
        p = UPoly([Quat(1, 2, 3), J])
        assert p * UPoly.constant(ONE) == p

    def test_cross_terms_cancel_with_central_x(self):
        assert UPoly.linear(I) * UPoly([I, ONE]) == X2P1

    def test_zero_polynomial(self):
        z = UPoly()
        assert z.is_zero() and z.degree == -1
        assert (z * X2P1).is_zero()


class TestEvaluation:
    def test_left_evaluation_at_root(self):
        p = UPoly([K, -(I + J), ONE])
        assert p.eval_left(J) == ZERO
        assert p.eval_left(I) == 2 * K  # i is not a right root

    def test_constant(self):
        assert UPoly.constant(Quat(5, 1)).eval_left(rand_quat(Random(0))) == Quat(5, 1)

    def test_defining_relation_root(self):
        assert X2P1.eval_left(I) == ZERO

    def test_sides_differ(self):
        p = UPoly([ZERO, I])  # i*x
        assert p.eval_left(J) == I * J
        assert p.eval_right(J) == J * I
        assert p.eval_left(J) != p.eval_right(J)


class TestDivision:
    def test_right_division_splits_x2_plus_1(self):
        q, r = X2P1.divmod_right(UPoly.linear(I))
        assert q == UPoly([I, ONE]) and r.is_zero()

    def test_one_step_division(self):
        a1, a0, a = Quat(1, 2), Quat(0, 0, 3), Quat(0, 1, 1)
        p = UPoly([a0, a1])
        q, r = p.divmod_right(UPoly.linear(a))
        assert q == UPoly.constant(a1)
        assert r == UPoly.constant(a1 * a + a0)

    def test_left_division_remainder_is_right_evaluation(self):
        p = UPoly([K, -(I + J), ONE])
        assert p.eval_right(I) == ZERO
        q, r = p.divmod_left(UPoly.linear(I))
        assert r.is_zero()
        assert UPoly.linear(I) * q == p

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            X2P1.divmod_right(UPoly())

    def test_remainder_law_randomized(self):
        rng, divisors = Random(5), Random(55)
        for _ in range(300):
            p = rand_upoly(rng, 6)
            a = rand_quat(rng, 6)
            q, r = p.divmod_right(UPoly.linear(a))
            assert q * UPoly.linear(a) + r == p
            assert r.degree <= 0
            value = r.coeff(0)
            assert value == p.eval_left(a)
            ql, rl = p.divmod_left(UPoly.linear(a))
            assert UPoly.linear(a) * ql + rl == p
            assert rl.coeff(0) == p.eval_right(a)
            assert p.eval_right(a) == sum((a**k * c for k, c in enumerate(p.coeffs)), ZERO)
            dd = divisors.randint(2, 3)
            d = UPoly([rand_quat(divisors, 6) for _ in range(dd)] + [rand_nonzero_quat(divisors, 6)])
            ql, rl = p.divmod_left(d)
            assert d * ql + rl == p
            assert rl.degree < d.degree

    def test_product_formula_randomized(self):
        rng = Random(6)
        for trial in range(300):
            p = rand_upoly(rng, 5)
            a = rand_quat(rng, 5)
            q = rand_upoly(rng, 4) * UPoly.linear(a) if trial % 2 else rand_upoly(rng, 5)
            value = q.eval_left(a)
            left = (p * q).eval_left(a)
            if not value:
                assert left == ZERO
            else:
                assert left == p.eval_left(value * a * value.inverse()) * value


class TestGcrdLclm:
    def test_gcrd_idempotent(self):
        assert gcrd(UPoly.linear(I), UPoly.linear(I)) == UPoly.linear(I)

    def test_gcrd_of_factor(self):
        assert gcrd(X2P1, UPoly.linear(I)) == UPoly.linear(I)

    def test_lclm_of_skew_linear_factors(self):
        m = lclm(UPoly.linear(I), UPoly.linear(J))
        assert m.degree == 2
        assert m.eval_left(I) == ZERO and m.eval_left(J) == ZERO

    def test_degree_identity_randomized(self):
        rng = Random(9)
        for trial in range(60):
            p = rand_upoly(rng, 3, 4)
            q = rand_upoly(rng, 3, 4)
            g, m = gcrd(p, q), lclm(p, q)
            assert g.degree + m.degree == p.degree + q.degree
            assert p.divmod_right(g)[1].is_zero()
            assert q.divmod_right(g)[1].is_zero()
            assert m.divmod_right(p)[1].is_zero()
            assert m.divmod_right(q)[1].is_zero()
            assert m.lead == ONE and g.lead == ONE

    def test_combination_is_a_monic_common_right_divisor(self):
        rng = Random(31)
        for _ in range(40):
            shared = rand_upoly(rng, 2, 3)
            polys = [rand_upoly(rng, 2, 3) * shared for _ in range(rng.randint(1, 4))]
            polys.insert(rng.randrange(len(polys) + 1), UPoly())
            d, u = _gcrd_combination(polys)
            assert len(u) == len(polys)
            assert sum((v * p for v, p in zip(u, polys)), UPoly()) == d
            assert d.lead == ONE and d.degree >= shared.degree
            assert all(p.divmod_right(d)[1].is_zero() for p in polys)

    def test_combination_matches_gcrd_on_pairs(self):
        rng = Random(32)
        for _ in range(40):
            p, q = rand_upoly(rng, 3, 4), rand_upoly(rng, 3, 4)
            if rng.random() < 0.5:
                shared = rand_upoly(rng, 2, 4)
                p, q = p * shared, q * shared
            assert _gcrd_combination([p, q])[0] == gcrd(p, q)

    def test_combination_of_one_input(self):
        p = UPoly([Quat(1, 2), J, Quat(0, 3)])
        d, u = _gcrd_combination([p])
        assert d == p.monic()
        assert u == [UPoly.constant(Quat(0, 3).inverse())]

    def test_combination_of_zeros(self):
        assert _gcrd_combination([UPoly(), UPoly()]) == (UPoly(), [UPoly(), UPoly()])
        assert _gcrd_combination([]) == (UPoly(), [])

    def test_gcrd_requires_a_nonzero_input(self):
        with pytest.raises(InvalidInput):
            gcrd(UPoly(), UPoly())
        with pytest.raises(InvalidInput):
            lclm(UPoly(), X2P1)

    def test_lclm_when_q_right_divides_p(self):
        p = UPoly([Quat(1, 2), J]) * X2P1
        assert lclm(p, X2P1) == p.monic()
        assert lclm(p, UPoly.linear(I)) == p.monic()

    def test_lclm_with_a_constant(self):
        p = UPoly([I, Quat(2, 0, 1), K])
        assert lclm(p, UPoly.constant(Quat(3, 1))) == p.monic()
        assert lclm(UPoly.constant(J), p) == p.monic()

    def test_lclm_of_a_polynomial_with_itself(self):
        rng = Random(21)
        for _ in range(10):
            p = rand_upoly(rng, 3, 3)
            assert lclm(p, p) == p.monic()


class TestCompanion:
    def test_linear(self):
        assert companion(UPoly.linear(I)) == X2P1

    def test_real_coefficient(self):
        two = UPoly.linear(Quat(2))
        assert companion(two) == two * two

    def test_already_central(self):
        assert companion(X2P1) == X2P1 * X2P1

    def test_always_central_randomized(self):
        rng = Random(13)
        for _ in range(100):
            p = rand_upoly(rng, 4)
            assert companion(p).is_central()


class TestRightRoots:
    def test_sphere(self):
        classes, status = right_roots(X2P1)
        assert classes == [Sphere(F(0), F(1))]
        assert status == RootSearchStatus.COMPLETE

    def test_single_isolated_root(self):
        # (x-i)(x-j) has exactly one right root; the class equation
        # (i+j)a = k-1 pins it to j, and eval at i is 2k, nonzero.
        classes, status = right_roots(UPoly([K, -(I + J), ONE]))
        assert classes == [Isolated(J)]
        assert status == RootSearchStatus.COMPLETE

    def test_honest_incompleteness(self):
        classes, status = right_roots(UPoly.from_central([-2, 0, 1]))
        assert classes == []
        assert status == RootSearchStatus.POSSIBLY_INCOMPLETE

    def test_rational_roots(self):
        p = UPoly.linear(Quat(F(1, 2))) * UPoly.linear(Quat(-3))
        classes, status = right_roots(p)
        assert status == RootSearchStatus.COMPLETE
        assert {cls.a for cls in classes} == {Quat(F(1, 2)), Quat(-3)}

    def test_double_root_collapses_to_point(self):
        p = UPoly.linear(I) * UPoly.linear(I)
        classes, status = right_roots(p)
        assert classes == [Isolated(I)]
        assert status == RootSearchStatus.COMPLETE

    def test_planted_root_of_four_factor_product_is_found(self):
        # The companion of this product is the product of the four class
        # quadratics x^2 - 2w*x + |a|^2, whose values have many divisors.
        # Every factor is rational of degree 2, so the search is complete
        # and the planted right root a4 must be reported.
        a1 = Quat(-4, -5, F(1, 3), -4)
        a2 = Quat(4, 5, 5, 2)
        a3 = Quat(3, -4, 3, -6)
        a4 = Quat(-6, 1, -1, 5)
        p = UPoly.constant(ONE)
        for a in (a1, a2, a3, a4):
            p = p * UPoly.linear(a)
        assert p.eval_left(a4) == ZERO
        classes, status = right_roots(p)
        assert status == RootSearchStatus.COMPLETE
        assert Isolated(a4) in classes or Sphere(2 * a4.w, a4.norm()) in classes

    def test_constant_rejected(self):
        with pytest.raises(InvalidInput):
            right_roots(UPoly.constant(Quat(5)))

    def test_all_emitted_roots_verify(self):
        rng = Random(17)
        for _ in range(60):
            factors = [rand_quat(rng, 3, integer=True) for _ in range(rng.randint(1, 3))]
            p = UPoly.constant(ONE)
            for a in factors:
                p = p * UPoly.linear(a)
            classes, _ = right_roots(p)
            for cls in classes:
                if isinstance(cls, Isolated):
                    assert p.eval_left(cls.a) == ZERO
                else:
                    member = sphere_member_in(Centralizer.full(), cls.t, cls.n)
                    if member is not None:
                        assert p.eval_left(member) == ZERO


class TestLeftRoots:
    def test_left_root_is_conjugate_transform(self):
        p = UPoly([K, -(I + J), ONE])
        classes, status = left_roots(p)
        assert classes == [Isolated(I)]
        assert p.eval_right(I) == ZERO

    def test_roots_in_centralizer_filters(self):
        roots, _ = roots_in_centralizer(X2P1, Centralizer.quadratic(J), side="left")
        assert roots and all(r in (J, -J) for r in roots)
        roots, _ = roots_in_centralizer(X2P1, Centralizer.center(), side="left")
        assert roots == []


class TestRootSpace:
    def test_full_sphere_gives_dim_two(self):
        basis = root_space(X2P1, I)
        assert basis.dim == 2
        assert basis.over == Centralizer.quadratic(I)
        assert basis.basis == (ONE, J)

    def test_double_root_gives_dim_one(self):
        sq = UPoly.linear(I) * UPoly.linear(I)
        basis = root_space(sq, I)
        assert basis.dim == 1 and basis.basis == (ONE,)

    def test_linear_poly(self):
        basis = root_space(UPoly.linear(I), I)
        assert basis.dim == 1

    def test_non_root_rejected(self):
        with pytest.raises(InvalidInput):
            root_space(X2P1, J + ONE)

    def test_sphere_pick_is_the_first_unit_outside_the_centralizer(self):
        basis = root_space(X2P1, J)
        assert basis.over == Centralizer.quadratic(J)
        assert basis.basis == (ONE, I)

    def test_central_root(self):
        p = UPoly.linear(Quat(2)) * X2P1
        basis = root_space(p, Quat(2))
        assert basis.over == Centralizer.full()
        assert basis.basis == (ONE,)

    def test_dimension_matches_raw_system_oracle(self):
        rng = Random(43)
        seen = set()
        for trial in range(150):
            a = rand_quat(rng, 4)
            class_quadratic = UPoly.from_central([a.norm(), -2 * a.scalar_part(), 1])
            kind = trial % 5
            if kind == 0:  # a is a root
                p = rand_upoly(rng, 2) * UPoly.linear(a)
            elif kind == 1:  # the whole class of a is roots
                p = rand_upoly(rng, 2) * class_quadratic
            elif kind == 2:  # a central point, a root or not
                a = Quat(rng.randint(-2, 2))
                p = rand_upoly(rng, 2) * UPoly.linear(Quat(rng.randint(-2, 2)))
            elif kind == 3:  # remainder by the class quadratic: alpha = 0, beta != 0
                p = rand_upoly(rng, 2) * class_quadratic + UPoly.constant(rand_nonzero_quat(rng, 3))
            else:  # the remainder's candidate is off the class
                p = rand_upoly(rng, 3)
            dim = root_space_dim(p, a)
            assert dim == _class_dimension_by_raw_system(p, a)
            seen.add((kind, dim))
        assert {(0, 1), (1, 2), (2, 0), (2, 1), (3, 0), (4, 0)} <= seen

    def test_every_basis_conjugate_is_a_root(self):
        rng = Random(19)
        for _ in range(50):
            a = rand_quat(rng, 4)
            p = rand_upoly(rng, 3) * UPoly.linear(a)
            basis = root_space(p, a)
            for r in basis.basis:
                assert r
                assert p.eval_left(r * a * r.inverse()) == ZERO

    def test_inequality_on_products_of_linear_factors(self):
        rng = Random(23)
        for _ in range(100):
            factors = [rand_quat(rng, 4, integer=True) for _ in range(rng.randint(1, 4))]
            p = UPoly.constant(ONE)
            for a in factors:
                p = p * UPoly.linear(a)
            reps: list[Quat] = []
            for a in factors:
                if not any(
                    a.scalar_part() == b.scalar_part() and a.norm() == b.norm()
                    for b in reps
                ):
                    reps.append(a)
            assert sum(root_space_dim(p, a) for a in reps) <= p.degree


class TestMinimalPolynomials:
    def test_j_over_gaussian_field(self):
        assert minimal_left_poly(J, Centralizer.quadratic(I)) == X2P1

    def test_member_gives_linear(self):
        assert minimal_left_poly(I, Centralizer.quadratic(I)) == UPoly.linear(I)

    def test_characteristic_polynomial_over_center(self):
        expected = UPoly.from_central([2, -2, 1])
        assert minimal_left_poly(Quat(1, 0, 1), Centralizer.center()) == expected

    def test_full_ring_always_linear(self):
        b = Quat(1, 2, 3, F(4, 5))
        assert minimal_left_poly(b, Centralizer.full()) == UPoly.linear(b)

    def test_right_twin(self):
        assert minimal_right_poly(I, Centralizer.quadratic(J)) == X2P1

    def test_annihilators_are_left_multiples(self):
        # Left side: left evaluation and right division; right side: right
        # evaluation and left division.  Four centralizer kinds each.
        sides = (
            (minimal_left_poly, UPoly.eval_left, UPoly.divmod_right),
            (minimal_right_poly, UPoly.eval_right, UPoly.divmod_left),
        )
        rng = Random(29)
        for _ in range(50):
            b = rand_quat(rng, 4)
            kinds = (
                Centralizer.full(),
                Centralizer.center(),
                Centralizer.quadratic(rand_pure_quat(rng, 4)),
                Centralizer.quadratic(b.pure_part() or I),
            )
            for c in kinds:
                for minimal, evaluate, divide in sides:
                    p = minimal(b, c)
                    assert evaluate(p, b) == ZERO
                    assert all(c.contains(co) for co in p.coeffs)
                    assert p.degree == (1 if c.contains(b) else 2)
                    # any q in c[x]: q(b) = remainder(q, p)(b); minimality
                    # forces annihilators to reduce to zero
                    coeffs = [
                        sum((e * Quat.scalar(rng.randint(-3, 3)) for e in c.basis()), ZERO)
                        for _ in range(4)
                    ]
                    q = UPoly(coeffs)
                    if q.is_zero():
                        continue
                    _, r = divide(q, p)
                    assert evaluate(q, b) == evaluate(r, b)
                    if evaluate(q, b) == ZERO:
                        assert r.is_zero()

    def test_reducible_minimal_polynomial_forces_conjugate_inside(self):
        rng = Random(31)
        found_reducible = 0
        for _ in range(300):
            b = rand_quat(rng, 3)
            u = rand_pure_quat(rng, 3)
            c = Centralizer.quadratic(u)
            p = minimal_left_poly(b, c)
            if p.degree != 2:
                continue
            roots, _ = roots_in_centralizer(p, c, side="right")
            if roots:
                found_reducible += 1
                for root in roots:
                    assert p.divmod_right(UPoly.linear(root))[1].is_zero()
                    assert find_conjugator(b, root) is not None
        assert found_reducible > 0


class TestWedderburn:
    def test_orbit_of_j_under_i(self):
        assert wedderburn_lclm(J, [I]) == X2P1

    def test_fixed_element(self):
        assert wedderburn_lclm(I, [I]) == UPoly.linear(I)

    def test_trivial_group(self):
        assert wedderburn_lclm(J, [ONE]) == UPoly.linear(J)

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidInput):
            wedderburn_lclm(J, [ZERO])

    def test_matches_minimal_left_polynomial(self):
        rng = Random(37)
        for _ in range(100):
            b = rand_quat(rng, 4)
            gens = [rand_nonzero_quat(rng, 4) for _ in range(rng.randint(1, 2))]
            p = wedderburn_lclm(b, gens)
            assert p == minimal_left_poly(b, centralizer_of_set(gens))
            assert root_space(p, b).dim == p.degree

    def test_isolated_roots_conjugate_to_base(self):
        rng = Random(41)
        checked = 0
        for _ in range(60):
            b = rand_quat(rng, 3)
            gens = [rand_nonzero_quat(rng, 3)]
            p = wedderburn_lclm(b, gens)
            classes, _ = right_roots(p)
            for cls in classes:
                if isinstance(cls, Isolated):
                    assert find_conjugator(cls.a, b) is not None
                    checked += 1
                else:
                    assert (cls.t, cls.n) == (2 * b.scalar_part(), b.norm())
                    checked += 1
        assert checked > 0
