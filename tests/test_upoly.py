"""One-variable polynomial algebra: arithmetic, one-sided division, common
multiples, root classes, root spaces, and minimal/Wedderburn polynomials."""

from fractions import Fraction as F
from itertools import product
from math import gcd, lcm
from random import Random

import pytest

from quatca import ratfactor
from quatca.errors import BOUNDS, InvalidInput
from quatca.ratfactor import factor_central
from quatca.randgen import rand_nonzero_quat, rand_pure_quat, rand_quat, rand_upoly
from quatca.scalars import (
    Centralizer,
    I,
    J,
    K,
    ONE,
    Quat,
    ZERO,
    _integer_rows,
    find_conjugator,
    solve_combination,
)
from quatca.upoly import (
    Isolated,
    RootSearchStatus,
    Sphere,
    UPoly,
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
    _class_roots,
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


class TestShift:
    @pytest.mark.parametrize("p", [X2P1, UPoly()])
    def test_negative_shift_is_refused(self, p):
        with pytest.raises(InvalidInput, match="^negative shift -1$"):
            p.shift(-1)


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

    def test_remainder_loop_matches_the_cofactor_oracle(self):
        # gcrd keeps no Bezout cofactors; _gcrd_combination, which does,
        # is the oracle on a zero input, a shared right factor and
        # generic (coprime) pairs, five pairs per degree.
        rng = Random(33)

        def poly(degree):
            return UPoly([*(rand_quat(rng, 4) for _ in range(degree)), rand_nonzero_quat(rng, 4)])

        for degree in (1, 2, 4):
            for _ in range(5):
                p, q, shared = poly(degree), poly(degree), poly(2)
                assert gcrd(p, UPoly()) == _gcrd_combination([p, UPoly()])[0] == p.monic()
                assert gcrd(UPoly(), q) == _gcrd_combination([UPoly(), q])[0] == q.monic()
                assert gcrd(p, q) == _gcrd_combination([p, q])[0] == UPoly.constant(ONE)
                # H[x]p + H[x]q = H[x], so the multiples generate H[x]·shared.
                d = gcrd(p * shared, q * shared)
                assert d == _gcrd_combination([p * shared, q * shared])[0] == shared.monic()

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

    def test_one_solve_matches_the_first_dependence_among_the_remainders(self):
        # The reference: the first k at which x^k * p mod q is a left
        # combination of the remainders before it, one solve per k.
        def by_first_dependence(p, q):
            rems = [p.divmod_right(q)[1]]
            while len(rems) <= q.degree:
                rems.append(rems[-1].shift(1).divmod_right(q)[1])
            vecs = [[r.coeff(j) for j in range(q.degree)] for r in rems]
            for k in range(len(vecs)):
                sol = solve_combination(vecs[:k], vecs[k], Centralizer.full())
                if sol is not None:
                    return (UPoly([-c for c in sol] + [ONE]) * p).monic()

        rng = Random(30)

        def poly(lo, hi):
            coeffs = [rand_quat(rng, 5) for _ in range(rng.randint(lo, hi))]
            return UPoly(coeffs + [rand_nonzero_quat(rng, 5)])

        pairs = [(poly(1, 5), poly(1, 5)) for _ in range(30)]
        for _ in range(30):
            shared = poly(1, 2)
            pairs.append((poly(1, 3) * shared, poly(1, 3) * shared))
        for _ in range(20):
            q = poly(1, 3)
            pairs.append((poly(1, 2) * q, q))
            p = poly(1, 3)
            pairs.append((p, poly(1, 2) * p))
        pairs += [(poly(1, 5), UPoly.constant(rand_nonzero_quat(rng, 5))) for _ in range(10)]
        for p, q in pairs:
            assert lclm(p, q) == by_first_dependence(p, q)


def _companion(p):
    """The companion p*conj(p) as the root search computes it, the sum of
    the squares of p's integer rows, high to low, over D^2."""
    rows, den = _integer_rows(p.coeffs)
    return ratfactor._sum_of_squares(rows), den


def _scaled_product_with_conjugate(p, den):
    """D^2*p*conj(p), high to low, from plain `UPoly` arithmetic."""
    product = p * p.conj_poly()
    assert all(c.is_central() for c in product.coeffs)
    return [c.w * den * den for c in reversed(product.coeffs)]


class TestCompanion:
    def test_linear(self):
        assert _companion(UPoly.linear(I)) == ([1, 0, 1], 1)

    def test_real_coefficient(self):
        two = UPoly.linear(Quat(2))
        assert _companion(two) == ([1, -4, 4], 1)

    def test_already_central(self):
        assert _companion(X2P1) == ([1, 0, 2, 0, 1], 1)

    def test_always_central_randomized(self):
        rng = Random(13)
        for _ in range(100):
            p = rand_upoly(rng, 4)
            squares, den = _companion(p)
            assert squares == _scaled_product_with_conjugate(p, den)


def _shapes(rng):
    """Seeded polynomials with zero coefficients, mixed denominators and
    zero coordinate rows, then a constant and the zero polynomial."""
    for trial in range(40):
        p = rand_upoly(rng, 5, 6)
        coeffs = [ZERO if rng.random() < 0.3 else c for c in p.coeffs]
        if trial % 4 == 0:
            coeffs = [Quat(c.w, c.x, 0, c.z) for c in coeffs]  # a zero j row
        yield UPoly(coeffs)
    yield UPoly.constant(Quat(F(2, 3), 0, F(-1, 5)))
    yield UPoly()


class TestIntegerRowsAgainstQuatArithmetic:
    """The companion, `eval_left` and the class remainders work on integer
    coordinate rows or an integer Horner sum; plain `Quat` arithmetic is
    the reference."""

    def test_companion_is_the_product_with_the_conjugate(self):
        for p in _shapes(Random(14)):
            squares, den = _companion(p)
            assert squares == _scaled_product_with_conjugate(p, den)

    def test_eval_left_matches_the_quat_horner(self):
        rng = Random(15)
        for p in _shapes(rng):
            central = Quat(F(rng.randint(-5, 5), rng.randint(1, 4)))
            for a in (rand_quat(rng, 5), rand_quat(rng, 5, integer=True), central, ZERO, ONE):
                assert p.eval_left(a) == _quat_horner(p, a)
                assert p.eval_right(a) == sum((a**k * c for k, c in enumerate(p.coeffs)), ZERO)

    @pytest.mark.parametrize(
        "p",
        [
            UPoly([Quat(1, 2, 0, 3), Quat(F(1, 2), -1, 0, 2), Quat(2, 1, 0, F(1, 3))]),
            UPoly.linear(I) * UPoly.linear(I),
            UPoly([J, Quat(1, 1)]) * UPoly.from_central([0, 1, 1, 1]),
            UPoly([J, Quat(1, 1)]) * UPoly.from_central([3]),
            UPoly([Quat(F(1, 2), 0, 0, 1)]),
        ],
        ids=["zero-row", "leading-zero-entry", "content-divisible-by-x", "constant-content", "constant"],
    )
    def test_class_remainder_is_the_right_division_remainder(self, p):
        # Rows D*p of length l and the primitive f = L*(x^2 - t*x + n):
        # the pseudo-remainders are L^(l - 2) * D times the remainder of p
        # by the class quadratic (L^0 * D below degree 2).
        rng = Random(16)
        classes = [(F(0), F(1)), (F(-1), F(1)), (F(1, 2), F(3, 4))]
        for _ in range(8):
            k = rng.randint(-6, 6)
            classes.append((F(k, rng.randint(1, 3)), F(k * k + rng.randint(1, 9), 2)))
        rows, den = _integer_rows(p.coeffs)
        for t, n in classes:
            alpha, beta = ratfactor._class_remainder(rows, _class_quadratic(t, n))
            rem = p.divmod_right(UPoly.from_central([n, -t, 1]))[1]
            scale = lcm(t.denominator, n.denominator) ** max(len(rows[0]) - 2, 0) * den
            assert (Quat(*alpha), Quat(*beta)) == (rem.coeff(1) * scale, rem.coeff(0) * scale)


def _reference_class_roots(rows, t, n):
    """`_class_roots` as first written: the candidate -alpha^-1*beta as a
    `Quat`, tested on the class quadratic by `Quat` products."""
    alpha, beta = (Quat(*v) for v in ratfactor._class_remainder(rows, _class_quadratic(t, n)))
    if not alpha and not beta:
        return Sphere(t, n)
    if alpha:
        cand = -(alpha.inverse() * beta)
        if not (cand * cand - cand * t + Quat.scalar(n)):
            return Isolated(cand)
    return None


class TestIntegerClassTest:
    def test_agrees_with_the_quat_class_quadratic(self):
        # Seeded classes of planted right roots (p = q*(x - a)), planted
        # spheres (p = q*f), right roots b next to the class (-conj(a):
        # the norm without the trace; a with its pure part doubled: the
        # trace without the norm), which are the candidate when q is
        # constant, and random polynomials.
        rng = Random(95)
        kinds = {"isolated": 0, "sphere": 0, "none": 0}
        for _ in range(300):
            a = rand_pure_quat(rng, 6) + Quat(F(rng.randint(-6, 6), rng.randint(1, 3)))
            if not a.pure_part():
                continue
            t, n = 2 * a.w, a.norm()
            q = rand_upoly(rng, 3, 6)
            roll = rng.random()
            if roll < 0.35:
                p = q * UPoly.linear(a)
            elif roll < 0.5:
                p = q * UPoly.from_central([n, -t, 1])
            elif roll < 0.7:
                b = -a.conjugate() if roll < 0.6 else a * 2 - a.w
                p = (q if rng.random() < 0.5 else UPoly.constant(rand_nonzero_quat(rng, 6))) * UPoly.linear(b)
            else:
                p = rand_upoly(rng, 5, 6)
            rows = _integer_rows(p.coeffs)[0]
            got = _class_roots(rows, _class_quadratic(t, n))
            assert got == _reference_class_roots(rows, t, n), (p, t, n)
            kinds["none" if got is None else "sphere" if isinstance(got, Sphere) else "isolated"] += 1
        assert min(kinds.values()) >= 20


class TestEvaluationBound:
    """An evaluation whose power of the point at the degree may pass the
    bound on a power in the text, 100,000 bits, is refused; the root
    search's own check of a rational root it found is not bounded."""

    def test_at_the_edge(self):
        # 2^1000 grows 1,000 bits a factor: degree 100 is at the bound,
        # which is inclusive, and degree 101 past it.
        a = Quat(2**1000)
        assert UPoly.from_central([0] * 100 + [1]).eval_left(a) == Quat(2**100000)
        with pytest.raises(InvalidInput, match="evaluation at degree 101 of up to 101000 bits, above the bound of 100000 bits"):
            UPoly.from_central([0] * 101 + [1]).eval_left(a)
        with pytest.raises(InvalidInput, match="above the bound of 100000 bits"):
            UPoly.from_central([0] * 101 + [1]).eval_right(a)

    def test_just_below_and_just_above_at_a_quaternion(self):
        # 3/2 + i grows log2(13)/2 = 1.85 bits a factor: x^54000 takes
        # 99,912 bits and x^54050 100,004.
        a = Quat(F(3, 2), 1)
        below, above = (UPoly([ZERO] * n + [ONE]) for n in (54000, 54050))
        assert below.eval_left(a).norm() == F(13, 4) ** 54000
        for evaluate in (above.eval_left, above.eval_right):
            with pytest.raises(InvalidInput, match="evaluation at degree 54050 of up to 100004 bits"):
                evaluate(a)

    def test_a_root_space_dimension_just_below_and_just_above(self):
        # 123456789j grows log2(123456789) = 26.88 bits a factor: degree
        # 3,720 takes 99,992 bits and 3,721 100,018.  The class quadratic
        # x^2 + 123456789^2 divides p, so its whole class are roots.
        a = Quat(0, 0, 123456789)
        quadratic = UPoly.from_central([123456789**2, 0, 1])
        below, above, far = (quadratic * UPoly([ZERO] * (n - 2) + [ONE]) for n in (3720, 3721, 8000))
        assert root_space_dim(below, a) == 2
        for p, message in [
            (above, "evaluation at degree 3721 of up to 100018 bits, above the bound of 100000 bits"),
            (far, "evaluation at degree 8000 of up to 215035 bits, above the bound of 100000 bits"),
        ]:
            with pytest.raises(InvalidInput) as info:
                root_space_dim(p, a)
            assert str(info.value) == message
            with pytest.raises(InvalidInput, match="above the bound of 100000 bits"):
                root_space(p, a)

    def test_points_that_cannot_grow_are_unbounded(self):
        p = UPoly([ZERO] * 100_001 + [ONE])
        for a in (J, -ONE):
            assert p.eval_left(a) == p.eval_right(a) == a**100_001

    def test_the_root_search_checks_its_rational_roots_unbounded(self, monkeypatch):
        monkeypatch.setitem(BOUNDS, "power_bits", (0, BOUNDS["power_bits"][1]))
        p = UPoly.from_central([-3, 2]) * UPoly.linear(Quat(2)) * UPoly.linear(I)
        with pytest.raises(InvalidInput, match="above the bound of 0 bits"):
            p.eval_left(Quat(2))
        assert right_roots(p)[0] == [Isolated(Quat(F(3, 2))), Isolated(Quat(2)), Isolated(I)]


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

    def test_incomplete_search_hides_no_rational_root(self):
        # A root a in H_Q makes x - a a right factor, so N(x - a) divides
        # N(p) and the rational factorization reports its class, even when
        # a field-limit factor f makes the status POSSIBLY_INCOMPLETE.
        rng = Random(19)
        grid = [Quat(*c) for c in product(range(-2, 3), repeat=4)]
        limits = ([-2, 0, 0, 1], [-2, 0, 1], [1, 0, 0, 0, 1])  # x^3-2, x^2-2, x^4+1
        found = 0
        for trial in range(21):
            p = UPoly.from_central(limits[trial % 3])
            for _ in range(rng.randint(1, 3)):
                p = p * UPoly.linear(rand_quat(rng, 2, integer=True))
            classes, status = right_roots(p)
            assert status == RootSearchStatus.POSSIBLY_INCOMPLETE
            for a in grid:
                if not p.eval_left(a):
                    found += 1
                    assert Isolated(a) in classes or Sphere(2 * a.w, a.norm()) in classes
        assert found >= 21


def _sympy_factor(coeffs):
    """The irreducible factors of a central polynomial given low to high,
    with their multiplicities, from sympy's `factor_list`, in the form
    `factor_central` reports: sorted (primitive integer tuple high to low
    with a positive leading coefficient, multiplicity) pairs."""
    from sympy import Poly, QQ, Symbol

    poly = Poly([QQ(c.numerator, c.denominator) for c in reversed(coeffs)], Symbol("x"), domain=QQ)
    factors = []
    for factor, mult in poly.factor_list()[1]:
        low_to_high = [F(int(c.numerator), int(c.denominator)) for c in reversed(factor.rep.to_list())]
        factors.append((tuple(_one_form(low_to_high)), mult))
    return tuple(sorted(factors))


def _class_quadratic(t, n):
    """The primitive integer quadratic [L, -T, N] of x^2 - t*x + n, the
    form in which `factor_central` reports it."""
    den = lcm(t.denominator, n.denominator)
    return [den, -t.numerator * (den // t.denominator), n.numerator * (den // n.denominator)]


def _one_form(coeffs):
    """A rational polynomial given low to high in `factor_central`'s input
    form: its primitive integer multiple, high to low, with a positive
    leading coefficient."""
    coeffs = [F(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in reversed(coeffs)]
    content = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    return [v // content for v in ints]


def _quat_horner(p, a):
    """The left evaluation p(a) by `Quat` products and sums, one step at a
    time: the reference for `UPoly.eval_left`."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc


def _full_companion_right_roots(p):
    """The right-root search through the full companion N(p) = p*conj(p),
    in plain `Quat` arithmetic: the oracle for the content-first search in
    integer rows.  Each class is read from one right division by its
    quadratic, and each rational root from a `Quat` Horner sum."""
    norm = p * p.conj_poly()
    assert all(c.is_central() for c in norm.coeffs)
    factors = _sympy_factor([c.w for c in norm.coeffs])
    roots = [F(-g[1], g[0]) for g, _ in factors if len(g) == 2]
    classes = [Isolated(Quat(root)) for root in sorted(roots) if not _quat_horner(p, Quat(root))]
    incomplete = any(len(g) > 3 for g, _ in factors)
    quadratics = sorted((F(-g[1], g[0]), F(g[2], g[0])) for g, _ in factors if len(g) == 3)
    for t, n in quadratics:
        if t * t - 4 * n > 0:
            incomplete = True
            continue
        rem = p.divmod_right(UPoly.from_central([n, -t, 1]))[1]
        if not rem:
            classes.append(Sphere(t, n))
        elif alpha := rem.coeff(1):
            cand = -(alpha.inverse() * rem.coeff(0))
            if cand * cand - cand * t + n == ZERO:
                classes.append(Isolated(cand))
    status = RootSearchStatus.POSSIBLY_INCOMPLETE if incomplete else RootSearchStatus.COMPLETE
    return classes, status


def _rand_central(rng, degree):
    """A central factor of the given degree: random, or a product of rational
    roots and quadratics with any discriminant."""
    if degree == 0 or rng.random() < 0.4:
        return UPoly.from_central(
            [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree)] + [rng.randint(1, 3)]
        )
    out = UPoly.constant(ONE)
    while out.degree < degree:
        if degree - out.degree >= 2 and rng.random() < 0.5:
            out = out * UPoly.from_central([rng.randint(-4, 6), rng.randint(-3, 3), 1])
        else:
            out = out * UPoly.from_central([F(rng.randint(-4, 4), rng.randint(1, 2)), 1])
    return out


class TestContentFirstAgainstFullCompanion:
    """`right_roots` factors the central content c and N(q) for p = q*c; the
    oracle factors N(p) = c^2*N(q) whole.  Classes, their order and the
    status must agree."""

    def _agree(self, p):
        assert right_roots(p) == _full_companion_right_roots(p)
        left_classes, left_status = _full_companion_right_roots(p.conj_poly())
        expected = [Isolated(c.a.conjugate()) if isinstance(c, Isolated) else c for c in left_classes]
        assert left_roots(p) == (expected, left_status)

    def test_planted_products_times_central_factors(self):
        rng = Random(71)
        for trial in range(48):
            q = UPoly.constant(rand_nonzero_quat(rng, 3))
            for _ in range(rng.randint(0, 3)):
                q = q * UPoly.linear(rand_quat(rng, 3, integer=trial % 2 == 0))
            p = q * _rand_central(rng, trial % 4)
            if p.degree >= 1:
                self._agree(p)

    def test_linear_cofactor_inside_a_sphere_of_the_content(self):
        rng = Random(72)
        for _ in range(12):
            a = rand_quat(rng, 4, integer=True)
            if a.is_central():
                continue
            sphere = UPoly.from_central([a.norm(), -2 * a.w, 1])
            for p in (UPoly.linear(a) * sphere, UPoly([a, rand_nonzero_quat(rng, 3)]) * sphere):
                self._agree(p)
                assert Sphere(2 * a.w, a.norm()) in right_roots(p)[0]

    @pytest.mark.parametrize(
        "content",
        [
            [-2, 1, 1],  # (x - 1)(x + 2): square discriminant
            [-2, 0, 1],  # x^2 - 2: positive non-square discriminant
            [1, 1, 1],  # x^2 + x + 1: negative discriminant
            [1, -2, 1],  # (x - 1)^2: zero discriminant
            [-2, 0, 0, 1],  # x^3 - 2: irreducible cubic
            [-1, 1, -1, 1],  # (x - 1)(x^2 + 1): split cubic
            [0, 1, 1, 1],  # x(x^2 + x + 1): divisible by x
        ],
    )
    def test_content_discriminants(self, content):
        cofactors = (
            UPoly([J, Quat(1, 1)]),
            UPoly.linear(Quat(1, 0, 2)) * UPoly.linear(K),
            UPoly.constant(Quat(2, 0, 0, 1)),
        )
        for q in cofactors:
            self._agree(q * UPoly.from_central(content))

    def test_constant_content(self):
        for q in (UPoly([J, Quat(1, 1)]), UPoly.linear(Quat(1, 0, 2)) * UPoly.linear(K)):
            self._agree(q * UPoly.from_central([F(3, 2)]))

    def test_central_polynomials(self):
        rng = Random(73)
        for degree in range(1, 6):
            for _ in range(4):
                self._agree(_rand_central(rng, degree))
        sphere = UPoly.from_central([1, 0, 1])
        self._agree(sphere * sphere * UPoly.from_central([-3, 0, 1]))

    def test_powers_of_x(self):
        # p = s*x^k: the search runs on s and adds the root 0, so a power of x
        # far past the bound on the degree of s costs linear time.
        rng = Random(75)
        for trial in range(24):
            s = UPoly.constant(rand_nonzero_quat(rng, 3))
            for _ in range(rng.randint(0, 2)):
                s = s * UPoly.linear(rand_quat(rng, 3))
            p = UPoly([ZERO] * (trial % 3 + 1) + list((s * _rand_central(rng, trial % 3)).coeffs))
            self._agree(p)
            assert Isolated(ZERO) in right_roots(p)[0]
        p = UPoly([ZERO] * 100_000 + [Quat(-1, 1), ZERO, ONE])
        assert right_roots(p) == ([Isolated(ZERO)], RootSearchStatus.POSSIBLY_INCOMPLETE)
        with pytest.raises(InvalidInput, match="degree 1001 without the power of x above the bound of 1000"):
            right_roots(UPoly([ZERO, ONE] + [ZERO] * 1000 + [J]))

    def test_non_monic_lead(self):
        rng = Random(74)
        for _ in range(16):
            p = UPoly.linear(rand_quat(rng, 3)) * _rand_central(rng, rng.randint(1, 3))
            self._agree(p.scale_left(rand_nonzero_quat(rng, 3)))


class TestLowDegreeFactorization:
    """The closed form for degree <= 2 against sympy's `factor_list`."""

    def test_random_linear_and_quadratic(self):
        rng = Random(75)
        for _ in range(120):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
            coeffs[-1] = coeffs[-1] or F(1)
            fac = factor_central(_one_form(coeffs))
            assert fac.factors == _sympy_factor(coeffs)
            assert fac.complete and fac.leftover_degree == 0

    def test_double_and_split_roots(self):
        rng = Random(76)
        for _ in range(40):
            r, s, lead = (F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            lead = lead or F(1)
            double, split = [lead * r * r, -2 * lead * r, lead], [lead * r * s, -lead * (r + s), lead]
            for coeffs in (double, split):
                fac = factor_central(_one_form(coeffs))
                assert fac.factors == _sympy_factor(coeffs)
                assert fac.leftover_degree == 0


def _linear_cases(rng):
    """Seeded (c1, c0) with a central, a noncentral or a zero root and a
    non-unit rational c1."""
    for k in range(300):
        c1 = rand_nonzero_quat(rng, 12)
        while c1 == ONE:
            c1 = rand_nonzero_quat(rng, 12)
        kind = k % 3
        if kind == 0:
            root = Quat(F(rng.randint(-9, 9), rng.randint(1, 9)))
        elif kind == 1:
            root = Quat(F(rng.randint(-9, 9), rng.randint(1, 9))) + rand_pure_quat(rng, 9)
        else:
            root = ZERO
        yield c1, -(c1 * root), root


class TestLinearRoots:
    """c1*x + c0 has the one right root -c1^-1*c0, found without a
    factorization."""

    def test_one_isolated_root_found_without_factoring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a linear root search factored")

        monkeypatch.setattr(ratfactor, "factor_central", refuse)
        for c1, c0, root in _linear_cases(Random(37)):
            p = UPoly([c0, c1])
            assert -(c1.inverse() * c0) == root
            assert right_roots(p) == ([Isolated(root)], RootSearchStatus.COMPLETE)
            assert p.eval_left(root) == ZERO
            left = -(c0 * c1.inverse())
            assert left_roots(p) == ([Isolated(left)], RootSearchStatus.COMPLETE)
            assert p.eval_right(left) == ZERO
            for c in (Centralizer.full(), Centralizer.center(), Centralizer.quadratic(I)):
                members = [left] if c.contains(left) else []
                assert roots_in_centralizer(p, c, side="left") == (members, RootSearchStatus.COMPLETE)
                members = [root] if c.contains(root) else []
                assert roots_in_centralizer(p, c, side="right") == (members, RootSearchStatus.COMPLETE)

    def test_pinned_cases(self):
        complete = RootSearchStatus.COMPLETE
        cases = [
            (UPoly([Quat(1, 2, 3, 4), Quat(F(2, 3))]), Quat(F(-3, 2), -3, F(-9, 2), -6), Quat(F(-3, 2), -3, F(-9, 2), -6)),
            (UPoly([Quat(-3), Quat(F(5, 2))]), Quat(F(6, 5)), Quat(F(6, 5))),
            (UPoly([ZERO, Quat(1, 1, 0, F(1, 2))]), ZERO, ZERO),
            (UPoly([J, I]), K, -K),
            (
                UPoly([Quat(F(1, 2), -1, F(3, 7)), Quat(2, F(-1, 3), 0, 5)]),
                Quat(F(-6, 131), F(-39, 3668), F(-369, 1834), F(297, 3668)),
                Quat(F(-6, 131), F(501, 3668), F(261, 1834), F(333, 3668)),
            ),
        ]
        for p, right, left in cases:
            assert right_roots(p) == ([Isolated(right)], complete)
            assert left_roots(p) == ([Isolated(left)], complete)
        assert roots_in_centralizer(cases[1][0], Centralizer.quadratic(I)) == ([Quat(F(6, 5))], complete)
        assert roots_in_centralizer(cases[0][0], Centralizer.quadratic(I)) == ([], complete)


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

    @pytest.mark.parametrize(
        "planting, dims",
        [("distinct", {1}), ("repeated", {1}), ("conjugated", {1}), ("conjugate-pair", {2})],
    )
    def test_dimension_is_the_class_verdict_on_planted_products(self, planting, dims):
        # The last factor's point a is a right root; the class reader's
        # verdict on its class, isolated or sphere, is the dimension.  On
        # these seeds a second factor from the class of a (a itself, or a
        # conjugate r*a*r^-1 other than conj(a)) leaves a isolated, while
        # conj(a) right before a makes the class quadratic
        # (x - conj(a))(x - a) a right factor: the whole class is roots.
        rng = Random(f"root-space:{planting}")
        seen = set()
        for _ in range(40):
            factors = [rand_quat(rng, 3, integer=True) for _ in range(rng.randint(1, 3))]
            a = factors[-1]
            if a.is_central():
                continue
            if planting == "repeated":
                factors.insert(rng.randrange(len(factors)), a)
            elif planting == "conjugated":
                r = rand_nonzero_quat(rng, 2, integer=True)
                if (r * a * r.inverse()).conjugate() == a:
                    continue
                factors.insert(rng.randrange(len(factors)), r * a * r.inverse())
            elif planting == "conjugate-pair":
                factors.insert(-1, a.conjugate())
            p = UPoly.constant(ONE)
            for b in factors:
                p = p * UPoly.linear(b)
            verdict = _class_roots(_integer_rows(p.coeffs)[0], _class_quadratic(2 * a.scalar_part(), a.norm()))
            dim = root_space(p, a).dim
            assert dim == {Isolated: 1, Sphere: 2}[type(verdict)]
            seen.add(dim)
        assert seen == dims

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

    def test_no_generators(self):
        assert wedderburn_lclm(J, []) == UPoly.linear(J)

    def test_only_second_generator_moves(self):
        # I fixes I, J does not: the orbit holds -i as well as i.
        assert wedderburn_lclm(I, [I, J]) == X2P1
        assert wedderburn_lclm(Quat(1, 2), [Quat(3, 1), Quat(1, 0, 1)]) == UPoly.from_central([5, -2, 1])

    def test_matches_minimal_left_polynomial(self):
        # Oracle: the lclm of x - b and x - b' for the first generator g
        # moving b to b' = g b g^-1, or x - b when every generator fixes b.
        rng = Random(37)
        for _ in range(100):
            b = rand_quat(rng, 4)
            gens = [rand_nonzero_quat(rng, 4) for _ in range(rng.randint(1, 2))]
            p = wedderburn_lclm(b, gens)
            mover = next((g for g in gens if g * b != b * g), None)
            expected = UPoly.linear(b) if mover is None else lclm(
                UPoly.linear(b), UPoly.linear(mover * b * mover.inverse()))
            assert p == expected
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
