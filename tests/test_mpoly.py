"""Multivariate ring, commuting points, point-ideal reduction, and
membership certificates."""

from random import Random

import pytest

from quatca.errors import InvalidInput
from quatca.mpoly import (
    CommutingPoint,
    LeftIdeal,
    MPoly,
    NotFoundWithinBounds,
    RabinowitschCertificate,
    _bounded_certificate,
    eval_at_point,
    find_certificate,
    in_point_ideal,
    monomials_upto,
    point_ideal,
    rabinowitsch_check,
    reduce_mod_point,
)
from quatca.randgen import (
    rand_commuting_point,
    rand_mpoly,
    rand_nonzero_quat,
    rand_pure_quat,
    rand_quat,
    rand_upoly,
)
from quatca.scalars import I, J, K, ONE, Quat, ZERO
from quatca.upoly import UPoly


def x(i, n):
    return MPoly.variable(i, n)


def const(q, n):
    return MPoly.constant(q, n)


class TestArithmetic:
    def test_central_variable(self):
        p = (x(0, 1) - const(I, 1)) * (x(0, 1) + const(I, 1))
        assert p == MPoly(1, {(2,): ONE, (0,): ONE})

    def test_identity(self):
        p = rand_mpoly(Random(0), 2, 3)
        assert p * const(ONE, 2) == p

    def test_left_coefficients_collect(self):
        assert MPoly.monomial(I, (1, 0)) * MPoly.monomial(J, (0, 1)) == MPoly.monomial(
            K, (1, 1)
        )

    def test_nvars_mismatch(self):
        with pytest.raises(InvalidInput):
            x(0, 1) + x(0, 2)


class TestCommutingPoint:
    def test_accepts_commuting_components(self):
        CommutingPoint([I, Quat(1, 1)])
        CommutingPoint([Quat(3), J])

    def test_rejects_noncommuting(self):
        with pytest.raises(InvalidInput):
            CommutingPoint([I, J])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            CommutingPoint([])


class TestEvaluation:
    def test_vanishing_example(self):
        pt = CommutingPoint([I, Quat(1, 1)])
        p = x(0, 2) * x(1, 2) - const(I - ONE, 2)
        assert eval_at_point(p, pt) == ZERO

    def test_constant(self):
        assert eval_at_point(const(K, 2), CommutingPoint([I, I])) == K

    def test_diagonal(self):
        assert eval_at_point(x(0, 2) - x(1, 2), CommutingPoint([I, I])) == ZERO

    def test_order_independence(self):
        rng = Random(3)
        for _ in range(150):
            nvars = rng.randint(1, 3)
            pt = rand_commuting_point(rng, nvars)
            p = rand_mpoly(rng, nvars, 4)
            forward = eval_at_point(p, pt)
            # reversed substitution order
            rev_terms = {tuple(reversed(e)): c for e, c in p.terms.items()}
            rev_pt = CommutingPoint(list(reversed(list(pt))))
            backward = eval_at_point(MPoly(nvars, rev_terms), rev_pt)
            assert forward == backward

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            eval_at_point(x(0, 2), CommutingPoint([I]))


class TestReduction:
    def test_generator_reduces_to_zero(self):
        pt = CommutingPoint([I, Quat(1, 1)])
        g = x(0, 2) - const(I, 2)
        remainder, quotients = reduce_mod_point(g, pt)
        assert remainder == ZERO
        assert quotients[0] == const(ONE, 2)

    def test_worked_example(self):
        pt = CommutingPoint([I, Quat(1, 1)])
        remainder, quotients = reduce_mod_point(x(0, 2) * x(1, 2), pt)
        assert remainder == I * Quat(1, 1) == Quat(-1, 1)
        rebuilt = const(remainder, 2)
        for q, g in zip(quotients, point_ideal(pt).gens):
            rebuilt = rebuilt + q * g
        assert rebuilt == x(0, 2) * x(1, 2)

    def test_univariate_case(self):
        remainder, quotients = reduce_mod_point(
            MPoly(1, {(2,): ONE, (0,): ONE}), CommutingPoint([I])
        )
        assert remainder == ZERO
        assert quotients[0] == MPoly(1, {(1,): ONE, (0,): I})

    def test_reconstruction_randomized(self):
        rng = Random(5)
        for _ in range(200):
            nvars = rng.randint(1, 3)
            pt = rand_commuting_point(rng, nvars)
            p = rand_mpoly(rng, nvars, 4)
            remainder, quotients = reduce_mod_point(p, pt)
            rebuilt = const(remainder, nvars)
            for q, g in zip(quotients, point_ideal(pt).gens):
                rebuilt = rebuilt + q * g
            assert rebuilt == p
            assert remainder == eval_at_point(p, pt)
            assert in_point_ideal(p, pt) == (remainder == ZERO)


class TestPointIdeal:
    def test_univariate(self):
        gens = point_ideal(CommutingPoint([I])).gens
        assert gens == (x(0, 1) - const(I, 1),)

    def test_two_variables(self):
        ideal = point_ideal(CommutingPoint([I, Quat(1, 1)]))
        assert len(ideal.gens) == 2

    def test_ideal_needs_generators(self):
        with pytest.raises(InvalidInput):
            LeftIdeal(())


def _reconstructs(ideal, p, a, cert):
    """Whether the cofactors rebuild (ap)^N = sum_k sum_j h[k][j] g_j (ap)^k."""
    nvars = ideal.nvars
    ap = p.scale_left(a)
    powers = [const(ONE, nvars)]
    for _ in range(cert.N):
        powers.append(powers[-1] * ap)
    rebuilt = MPoly(nvars, {})
    for k, row in enumerate(cert.cofactors):
        for h, g in zip(row, ideal.gens):
            rebuilt = rebuilt + h * g * powers[k]
    return rebuilt == powers[cert.N]


class TestMonomials:
    def test_graded_lexicographic_order(self):
        monos = monomials_upto(2, 2)
        assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


class TestCertificates:
    def test_member_of_the_ideal_itself(self):
        g = x(0, 1) - const(I, 1)
        out = rabinowitsch_check(LeftIdeal((g,)), g, ONE, 1, 0)
        assert isinstance(out, RabinowitschCertificate)
        assert out.N == 1

    def test_degbound_zero_blocks_the_flagship_instance(self):
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g * g,))
        out = rabinowitsch_check(ideal, g, J, 3, 0)
        assert isinstance(out, NotFoundWithinBounds)

    def test_flagship_instance_all_powers_admit_certificates(self):
        # The k >= 1 summands cancel the high-degree parts, so certificates
        # exist for every power once linear cofactors are allowed.
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g * g,))
        for N in (1, 2, 3):
            out = rabinowitsch_check(ideal, g, J, N, 1)
            assert isinstance(out, RabinowitschCertificate), N

    def test_hand_identity_for_the_cube(self):
        # (j(x-i))^3 = -j(x+i)(x-i)^2, moving j through (x-i) twice
        xi = UPoly.linear(I)
        jxi = xi.scale_left(J)
        lhs = jxi * jxi * jxi
        rhs = (UPoly([I, ONE]).scale_left(-J)) * xi * xi
        assert lhs == rhs

    def test_certificates_reconstruct_exactly(self):
        rng = Random(7)
        for _ in range(15):
            nvars = rng.randint(1, 2)
            pt = rand_commuting_point(rng, nvars, height=2)
            ideal = point_ideal(pt)
            p = ideal.gens[rng.randrange(nvars)]
            a = rand_nonzero_quat(rng, 2)
            out = rabinowitsch_check(ideal, p, a, rng.randint(1, 2), 1)
            assert isinstance(out, RabinowitschCertificate)
            assert _reconstructs(ideal, p, a, out)

    def test_two_variables_third_power_degree_four_found(self):
        # p = q1 (x1 - a1) + q2 (x2 - a2) lies in the ideal of the point, so
        # (ap)^3 = sum_i (a q_i)(x_i - a_i)(ap)^2 is a certificate; the
        # search runs over the full 2-var N=3 degbound=4 system.
        pt = CommutingPoint([Quat(1, 2), Quat(-1, 1)])
        ideal = point_ideal(pt)
        p = const(Quat(1, 0, 1), 2) * ideal.gens[0] + const(Quat(0, 2, -1, 1), 2) * ideal.gens[1]
        a = Quat(1, 1, 0, 2)
        out = rabinowitsch_check(ideal, p, a, 3, 4)
        assert isinstance(out, RabinowitschCertificate)
        assert out.N == 3
        assert _reconstructs(ideal, p, a, out)

    def test_two_variables_third_power_degree_four_not_found(self):
        # Point, p and a all lie in Q(i) and p(point) = 6i != 0; evaluating
        # any certificate at the point would give (a p(point))^3 = 0.
        pt = CommutingPoint([Quat(1, 1), Quat(0, 2)])
        ideal = point_ideal(pt)
        p = const(Quat(1, 1), 2) + const(I, 2) * x(0, 2) + const(Quat(2), 2) * x(1, 2)
        assert eval_at_point(p, pt) == Quat(0, 6)
        out = rabinowitsch_check(ideal, p, Quat(2, 1), 3, 4)
        assert out == NotFoundWithinBounds(3, 4)

    def test_find_certificate_two_variables(self):
        gens = (
            x(0, 2) - const(I, 2),
            x(1, 2) - const(Quat(1, 1), 2),
        )
        ideal = LeftIdeal(gens)
        out = find_certificate(ideal, gens[0], K, 3, 1)
        assert isinstance(out, tuple)
        n_found, cert = out
        assert 1 <= n_found <= 3
        assert isinstance(cert, RabinowitschCertificate)

    def test_nonvanishing_polynomial_gets_no_certificate(self):
        # p = 1 does not vanish at the point, so no power lands in the sum.
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g,))
        out = find_certificate(ideal, const(ONE, 1), ONE, 3, 2)
        assert isinstance(out, NotFoundWithinBounds)

    def test_invalid_bounds(self):
        g = x(0, 1) - const(I, 1)
        with pytest.raises(InvalidInput):
            rabinowitsch_check(LeftIdeal((g,)), g, ONE, 0, 1)
        with pytest.raises(InvalidInput):
            rabinowitsch_check(LeftIdeal((g,)), g, ONE, 1, -1)

    def test_invalid_search_bounds(self):
        g = x(0, 1) - const(I, 1)
        with pytest.raises(InvalidInput):
            find_certificate(LeftIdeal((g,)), g, ONE, 0, 1)
        with pytest.raises(InvalidInput):
            find_certificate(LeftIdeal((g,)), g, ONE, 3, -1)


def _bounded(ideal, p, a, N, degbound):
    """The answer of the bounded rational system alone."""
    ap = p.scale_left(a)
    powers = [const(ONE, ideal.nvars)]
    for _ in range(N):
        powers.append(powers[-1] * ap)
    bases = [g * powers[k] for k in range(N + 1) for g in ideal.gens]
    return _bounded_certificate(ideal, bases, powers, degbound)


def _mp(p):
    return MPoly(1, {(e,): c for e, c in enumerate(p.coeffs)})


def _one_variable_instance(rng):
    """Generators sharing the right factor x - b.  Half of the instances
    lie in one subfield Q(u) with p(b) != 0, so (ap)^N is never a member:
    its Q(u)-part would be a member in Q(u)[x], where every base vanishes
    at b and (ap)^N does not."""
    if rng.random() < 0.5:
        u = rand_pure_quat(rng, 2)

        def field(height=2):
            return Quat(rng.randint(-height, height)) + u * rng.randint(-height, height)

        b = field()
        gens = [UPoly([field(), field() or ONE]) * UPoly.linear(b) for _ in range(rng.randint(1, 2))]
        while True:
            p, a = UPoly([field(), field()]), field()
            if a and p.eval_left(b):
                break
    else:
        shared = UPoly.linear(rand_quat(rng, 2))
        gens = [rand_upoly(rng, 1, 2) * shared for _ in range(rng.randint(1, 2))]
        p = rand_upoly(rng, 1, 2) * (shared if rng.random() < 0.5 else UPoly.linear(rand_quat(rng, 2)))
        a = rand_nonzero_quat(rng, 2)
    return LeftIdeal(tuple(_mp(g) for g in gens)), _mp(p), a


class TestOneVariableMembership:
    """One variable decides membership by one gcrd; the bounded rational
    system is the oracle."""

    def test_agrees_with_the_bounded_system(self):
        rng = Random(13)
        kinds = set()
        for _ in range(60):
            ideal, p, a = _one_variable_instance(rng)
            N, degbound = rng.randint(1, 3), rng.randint(0, 3)
            out = rabinowitsch_check(ideal, p, a, N, degbound)
            oracle = _bounded(ideal, p, a, N, degbound)
            assert type(out) is type(oracle)
            if isinstance(out, RabinowitschCertificate):
                assert out.N == N and _reconstructs(ideal, p, a, out)
                kinds.add("found")
            else:
                assert out == NotFoundWithinBounds(N, degbound)
                kinds.add("not-found")
        assert kinds == {"found", "not-found"}

    def test_non_members_are_not_found_at_any_degree(self):
        rng = Random(14)
        checked = 0
        for _ in range(30):
            ideal, p, a = _one_variable_instance(rng)
            N = rng.randint(1, 3)
            if isinstance(rabinowitsch_check(ideal, p, a, N, 6), RabinowitschCertificate):
                continue
            checked += 1
            for degbound in range(7):
                assert _bounded(ideal, p, a, N, degbound) == NotFoundWithinBounds(N, degbound)
        assert checked >= 5

    @pytest.mark.parametrize(
        "gens, p, a, member",
        [
            ((x(0, 1) - const(I, 1),), const(ONE, 1), ZERO, True),
            ((x(0, 1) - const(I, 1),), MPoly(1, {}), J, True),
            ((MPoly(1, {}), x(0, 1) - const(I, 1)), x(0, 1) - const(I, 1), J, True),
            ((MPoly(1, {}),), x(0, 1) - const(I, 1), J, False),
            ((MPoly(1, {}), x(0, 1) - const(I, 1)), x(0, 1) + const(ONE, 1), I, False),
            ((x(0, 1) - const(I, 1), x(0, 1) - const(J, 1)), const(ONE, 1), K, True),
            (
                (x(0, 1) - const(I, 1), x(0, 1) - const(Quat(1, 1), 1)),
                x(0, 1) * x(0, 1) + const(J, 1),
                Quat(1, 2, 0, 1),
                True,
            ),
        ],
        ids=["a=0", "p=0", "zero-gen-member", "only-zero-gen", "zero-gen-non-member", "coprime", "coprime-2"],
    )
    def test_edge_cases_keep_the_system_outcome(self, gens, p, a, member):
        # Two coprime generators give the whole ring; a zero target is a
        # member of any ideal, and a nonzero one of no zero ideal.
        ideal = LeftIdeal(gens)
        for N in (1, 2):
            for degbound in range(4):
                out = rabinowitsch_check(ideal, p, a, N, degbound)
                assert isinstance(out, RabinowitschCertificate) == member
                assert type(out) is type(_bounded(ideal, p, a, N, degbound))
                if member:
                    assert _reconstructs(ideal, p, a, out)
