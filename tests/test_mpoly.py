"""Multivariate ring, commuting points, point-ideal reduction, and
membership certificates."""

from collections import Counter
from fractions import Fraction
from math import comb, prod
from random import Random
import time

import pytest
from sympy import QQ, Poly, Rational, symbols

from quatca import linalg, mpoly
from quatca.errors import BOUNDS, InvalidInput
from quatca.mpoly import (
    CommutingPoint,
    LeftIdeal,
    MPoly,
    NotFoundWithinBounds,
    RabinowitschCertificate,
    _bounded_certificate,
    _bounded_cofactors,
    _groebner_budget,
    _least_member_power,
    _membership,
    _to_upoly,
    eval_at_point,
    find_certificate,
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
from quatca.parsing import parse_mpoly, parse_quat
from quatca.scalars import I, J, K, ONE, Quat, ZERO
from quatca.upoly import UPoly, _gcrd_combination


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

    @pytest.mark.parametrize(
        "exps, point",
        [
            ((1722,), [Quat(1, 2)]),  # 1722 * log2(5)/2 = 1999.2 bits
            ((2000,), [I]),  # a point that adds no bits counts one per unit
            ((2000,), [Quat(1, 1)]),  # log2(2)/2 < 1 counts one too
            ((1000, 1000), [Quat(2), Quat(2)]),  # the variables of a term add up
            ((1000, 1000), [I, Quat(0, 2)]),
        ],
    )
    def test_size_bound(self, exps, point):
        # The bound on exponent times point growth is inclusive; one more
        # unit of the last exponent is refused before any work.
        pt = CommutingPoint(point)
        p = MPoly.monomial(ONE, exps) + MPoly.constant(ONE, len(exps))
        remainder, _ = reduce_mod_point(p, pt)
        assert remainder == eval_at_point(p, pt)
        over = MPoly.monomial(ONE, exps[:-1] + (exps[-1] + 1,)) + p
        with pytest.raises(InvalidInput) as info:
            reduce_mod_point(over, pt)
        assert str(info.value) == "reduction of a power of more than the bound of 2000 bits modulo the point"


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
    """Whether the cofactors fill N + 1 rows of one per generator and
    rebuild (ap)^N = sum_k sum_j h[k][j] g_j (ap)^k."""
    nvars = ideal.nvars
    if len(cert.cofactors) != cert.N + 1 or any(len(row) != len(ideal.gens) for row in cert.cofactors):
        return False
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
        # (ap)^3 = sum_i (a q_i)(x_i - a_i)(ap)^2 is a certificate; it comes
        # from the one system that lifts ap over the generators.
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


def _powers_and_bases(ideal, p, a, N):
    ap = p.scale_left(a)
    powers = [const(ONE, ideal.nvars)]
    for _ in range(N):
        powers.append(powers[-1] * ap)
    return powers, [g * powers[k] for k in range(N + 1) for g in ideal.gens]


def _bounded(ideal, p, a, N, degbound):
    """The answer of the bounded rational system alone."""
    powers, bases = _powers_and_bases(ideal, p, a, N)
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


def _repeated_root_instance(rng):
    """Generators with the repeated right factor (x - b)^e, e = 2 or 3, and
    p = c*(x - b) or a random multiple of x - b.  With a and c in Q(b)
    every base lies in I and the least member power is e; with other a,
    J_N can hold (ap)^N while I does not, as for the flagship."""
    u = rand_pure_quat(rng, 2)

    def field():
        while True:
            q = Quat(rng.randint(-2, 2)) + u * rng.randint(-2, 2)
            if q:
                return q

    root = UPoly.linear(field())
    power = root
    for _ in range(rng.randint(1, 2)):
        power = power * root
    gens = [power] if rng.random() < 0.6 else [power, rand_upoly(rng, 1, 2) * power]
    p = root.scale_left(field()) if rng.random() < 0.6 else rand_upoly(rng, 1, 2) * root
    a = field() if rng.random() < 0.5 else rand_nonzero_quat(rng, 2)
    return LeftIdeal(tuple(_mp(g) for g in gens)), _mp(p), a


def _least(ideal, p, a, top=None):
    """`_least_member_power` on the generators and a*p as UPolys."""
    return _least_member_power([_to_upoly(g) for g in ideal.gens], _to_upoly(p.scale_left(a)), top)


def _member_by_one_gcrd(ideal, p, a, N):
    """Whether (ap)^N lies in J_N, by one gcrd of every base g_j*(ap)^k."""
    powers, bases = _powers_and_bases(ideal, p, a, N)
    d = _gcrd_combination([_to_upoly(base) for base in bases])[0]
    target = _to_upoly(powers[N])
    return not (target.divmod_right(d)[1] if d else target)


class TestOneVariableMembership:
    """One variable decides membership by the chain of J_m = H[x]*d_m, one
    gcrd per step, and takes its certificate from the least member power;
    the bounded rational system is the oracle."""

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

    def test_a_fitting_chain_forms_only_the_powers_it_reads(self, monkeypatch):
        # I = H[x](x - i)^2, p = x - i, a = j: the least member power is 1,
        # with cofactors of degree 1, so at N = 1000 the certificate fills
        # rows 999 and 1000 alone, and only (ap)^999 and (ap)^1000 are
        # formed, in dense form: the first by one repeated squaring, the
        # second by one product, and no MPoly power list.
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g * g,))
        exponents, lists = [], []
        power, powers = mpoly._power, mpoly._powers
        monkeypatch.setattr(mpoly, "_power", lambda base, n, one: exponents.append(n) or power(base, n, one))
        monkeypatch.setattr(mpoly, "_powers", lambda *args: lists.append(args) or powers(*args))
        cert = rabinowitsch_check(ideal, g, J, 1000, 2)
        assert exponents == [999] and lists == []
        assert cert.N == 1000 and not any(h for row in cert.cofactors[:999] for h in row)
        # The rows that are read agree with the certificate at N = 1, moved up.
        assert cert.cofactors[999:] == rabinowitsch_check(ideal, g, J, 1, 2).cofactors

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

    def test_the_chain_agrees_with_the_bounded_system(self, monkeypatch):
        # Members of J_N only come from the repeated roots.  A certificate
        # from the chain fills rows N - m .. N only, for the least member
        # power m, and hands rref nothing; cofactors above degbound leave
        # the answer to the system.
        rng = Random(17)
        systems = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda rows, ncols: systems.append(ncols) or rref(rows, ncols))
        seen = Counter()
        for trial in range(60):
            ideal, p, a = (_repeated_root_instance if trial % 2 else _one_variable_instance)(rng)
            N, degbound = rng.randint(1, 5), rng.randint(0, 3)
            least = _least(ideal, p, a, N)
            systems.clear()
            out = rabinowitsch_check(ideal, p, a, N, degbound)
            from_chain = not systems
            assert type(out) is type(_bounded(ideal, p, a, N, degbound))
            assert (least is not None) == _member_by_one_gcrd(ideal, p, a, N)
            if least is None:
                assert out == NotFoundWithinBounds(N, degbound) and from_chain
                seen["non-member"] += 1
                continue
            m, rows = least
            assert 1 <= m <= N and len(rows) == m + 1
            assert m == 1 or not _member_by_one_gcrd(ideal, p, a, m - 1)
            fits = max(h.degree for row in rows for h in row) <= degbound
            assert from_chain == fits
            if fits:
                assert out.N == N and _reconstructs(ideal, p, a, out)
                assert not any(h for row in out.cofactors[: N - m] for h in row)
                seen[f"chain, least power {min(m, 2)}{'+' if m > 1 else ''}"] += 1
            else:
                seen["system " + type(out).__name__] += 1
        assert set(seen) == {
            "non-member", "chain, least power 1", "chain, least power 2+",
            "system RabinowitschCertificate", "system NotFoundWithinBounds",
        }

    def test_the_flagship_certificate_does_not_grow_with_the_power(self):
        # I = ((x - i)^2), p = x - i, a = j: I + I*ap holds ap, so the
        # cofactors of the first power, moved up N - 1 rows, certify every N.
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g * g,))
        degrees = set()
        for N in range(1, 7):
            out = rabinowitsch_check(ideal, g, J, N, 3)
            assert [k for k, row in enumerate(out.cofactors) if any(row)] == [N - 1, N]
            degrees.add(_largest_degree(h for row in out.cofactors for h in row))
        assert degrees == {1}


def _loop_least_member_power(gens, ap, top=None):
    """The chain as a loop that runs a gcrd with Bezout cofactors at every
    step, stable once the gcrd stops moving, and a right division at every
    power: the oracle for `_least_member_power`."""
    zeros = [UPoly()] * len(gens)
    d0, v = _gcrd_combination(gens)
    step = power = ap
    if not d0:
        return None if power else (1, [zeros, zeros])
    q, r = power.divmod_right(d0)
    if not r:
        return 1, [[q * u for u in v], zeros]
    last = d0.degree if top is None else min(top, d0.degree)
    d, rows, stable = d0, [v], False
    for m in range(1, last + 1):
        if not stable:
            d_next, (s, t) = _gcrd_combination([d0, d * step])
            stable = d_next == d
        if stable:
            rows = rows + [zeros]
        else:
            d, rows = d_next, [[s * u for u in v]] + [[t * h for h in row] for row in rows]
        q, r = power.divmod_right(d)
        if not r:
            return m, [[q * h for h in row] for row in rows]
        power = power * step
    return None


class TestChainAgainstTheLoop:
    """`_least_member_power` tests each step by one division and runs the
    gcrd only when the chain moves; the loop with a gcrd at every step
    gives the same least power and rows at every top."""

    def test_same_least_power_and_rows_at_every_top(self):
        rng = Random(47)
        instances = [(_repeated_root_instance if trial % 2 else _one_variable_instance)(rng) for trial in range(80)]
        # (x - i)^k with p = x - i: with a = j the chain moves to x - i, and
        # with a = 1 it stays at (x - i)^k, whose least member power is k.
        g = x(0, 1) - const(I, 1)
        instances += [(LeftIdeal((g.pow(k),)), g, a) for k in range(1, 7) for a in (J, ONE)]
        seen = Counter()
        for ideal, p, a in instances:
            gens, ap = [_to_upoly(g) for g in ideal.gens], _to_upoly(p.scale_left(a))
            d0 = _gcrd_combination(gens)[0]
            for top in [*range(1, d0.degree + 1), None]:
                assert _least_member_power(gens, ap, top) == _loop_least_member_power(gens, ap, top)
            least = _least_member_power(gens, ap)
            moves = d0.degree > 0 and _gcrd_combination([d0, d0 * ap])[0] != d0
            seen[("moves" if moves else "stays", "member" if least else "non-member")] += 1
            if least:
                seen[f"least power {min(least[0], 3)}"] += 1
        assert {("moves", "member"), ("stays", "member"), ("stays", "non-member")} <= set(seen)
        assert {"least power 1", "least power 2", "least power 3"} <= set(seen)


class TestEveryPower:
    """`find_certificate` in one variable decides membership at every power
    first: no least member power exceeds max(1, deg d_0).  The oracles are
    one gcrd over every base at each power and the loop of
    `rabinowitsch_check` over the powers, up to deg d_0 + 3."""

    def test_agrees_with_the_loop_over_every_power(self):
        rng = Random(19)
        seen = Counter()
        for trial in range(40):
            ideal, p, a = (_repeated_root_instance if trial % 2 else _one_variable_instance)(rng)
            degbound = rng.randint(0, 2)
            d0 = _gcrd_combination([_to_upoly(g) for g in ideal.gens])[0]
            top = max(d0.degree, 0) + 3
            members = [N for N in range(1, top + 1) if _member_by_one_gcrd(ideal, p, a, N)]
            loop = next(
                (N for N in range(1, top + 1)
                 if isinstance(rabinowitsch_check(ideal, p, a, N, degbound), RabinowitschCertificate)),
                None,
            )
            out = find_certificate(ideal, p, a, top, degbound)
            if loop is None:
                assert out == NotFoundWithinBounds(top, degbound)
                assert out.every_power == (not members)
                seen["none at any power" if not members else "none within the degree bound"] += 1
            else:
                assert out[0] == loop and _reconstructs(ideal, p, a, out[1])
                seen["found"] += 1
            if members:
                assert members[0] <= max(1, d0.degree)
                assert members == list(range(members[0], top + 1))
        assert set(seen) == {"none at any power", "none within the degree bound", "found"}

    def test_bisection_agrees_with_the_loop_from_the_least_member_power(self, monkeypatch):
        # When the least member power m has no certificate within the degree
        # bound, the search checks max_power and bisects over (m, max_power];
        # the loop over every power from m is the oracle.
        rng = Random(31)
        seen = Counter()
        for trial in range(60):
            ideal, p, a = (_repeated_root_instance if trial % 2 else _one_variable_instance)(rng)
            degbound, top = rng.randint(0, 1), rng.randint(1, 8)
            least = _least(ideal, p, a)
            if least is None:
                continue
            m = least[0]
            loop = next(
                (N for N in range(m, top + 1)
                 if isinstance(rabinowitsch_check(ideal, p, a, N, degbound), RabinowitschCertificate)),
                None,
            )
            checked = []

            def check(*args, original=mpoly._one_variable_check):
                checked.append(args[4])
                return original(*args)

            with monkeypatch.context() as patch:
                patch.setattr(mpoly, "_one_variable_check", check)
                out = find_certificate(ideal, p, a, top, degbound)
            if loop is None:
                assert out == NotFoundWithinBounds(top, degbound) and not out.every_power
                seen["none up to max_power" if m <= top else "least member power above max_power"] += 1
            else:
                assert out[0] == loop and out[1] == rabinowitsch_check(ideal, p, a, loop, degbound)
                seen["at m" if loop == m else "between m and max_power" if loop < top else "at max_power"] += 1
            assert len(checked) <= 2 + max(top - m, 1).bit_length()
        assert {"at m", "between m and max_power", "none up to max_power"} <= set(seen)

    def test_bisection_agrees_with_the_loop_in_several_variables(self, monkeypatch):
        # In several variables the search starts at 1, checks max_power and
        # bisects; the loop over every power from 1 is the oracle.  The
        # families are point ideals holding a*p, non-members whose point, p
        # and a lie in one subfield Q(u), the ideals that are not point
        # ideals, and the two-variable flagship analog, whose I holds
        # (ap)^3 but not (ap)^2.
        rng = Random(59)
        instances = [_point_instance(rng, nvars, degree) for nvars in (2, 3) for degree in (-1, -1, 0, 1) * 4]
        for family in ("product", "linear-quadratic", "intersection") * 6:
            ring = QQ.old_poly_ring(*symbols(f"x1:{3 if family == 'intersection' else rng.choice((3, 4))}"))
            instances.append(_non_point_instance(rng, family, ring)[:3])
        # Intersections have up to 10 generators, so their systems stay at
        # powers up to 2.
        instances = [
            (ideal, p, a, rng.randint(1, 2 if len(ideal.gens) > 2 else 4), rng.randint(0, 2))
            for ideal, p, a in instances
        ]
        # With a = 1 the analog's least certified power is 2.
        analog = LeftIdeal((parse_mpoly("(x1 - i)^2", 2), parse_mpoly("x2", 2)))
        instances += [(analog, parse_mpoly("x1 - i", 2), a, top, 1) for a in (ONE, J) for top in (2, 4)]
        seen = Counter()
        for ideal, p, a, top, degbound in instances:
            loop = next(
                (N for N in range(1, top + 1)
                 if isinstance(rabinowitsch_check(ideal, p, a, N, degbound), RabinowitschCertificate)),
                None,
            )
            checked = []

            def check(*args, original=rabinowitsch_check):
                checked.append(args[3])
                return original(*args)

            with monkeypatch.context() as patch:
                patch.setattr(mpoly, "rabinowitsch_check", check)
                out = find_certificate(ideal, p, a, top, degbound)
            if loop is None:
                assert out == NotFoundWithinBounds(top, degbound) and not out.every_power
                seen["none up to max_power"] += 1
            else:
                assert out[0] == loop and out[1] == rabinowitsch_check(ideal, p, a, loop, degbound)
                seen["at 1" if loop == 1 else "between 1 and max_power" if loop < top else "at max_power"] += 1
            assert len(checked) <= 2 + (top - 1).bit_length()
        assert set(seen) == {"at 1", "between 1 and max_power", "at max_power", "none up to max_power"}

    def test_the_chain_is_walked_once_per_search(self, monkeypatch):
        # Every probe reads the least member power and rows of the one walk.
        rng = Random(53)
        walks = []
        walk = mpoly._least_member_power
        monkeypatch.setattr(mpoly, "_least_member_power", lambda *args: walks.append(args) or walk(*args))
        g = x(0, 1) - const(I, 1)
        instances = [(LeftIdeal((g * g,)), g, J, 40, 0), (LeftIdeal((g * g,)), g, ONE, 8, 1)]
        for trial in range(40):
            ideal, p, a = (_repeated_root_instance if trial % 2 else _one_variable_instance)(rng)
            instances.append((ideal, p, a, rng.randint(1, 8), rng.randint(0, 2)))
        found = 0
        for ideal, p, a, top, degbound in instances:
            walks.clear()
            out = find_certificate(ideal, p, a, top, degbound)
            assert len(walks) == 1
            found += isinstance(out, tuple)
        assert found >= 5

    def test_a_member_whose_certificates_never_fit_takes_few_checks(self, monkeypatch):
        # The flagship at degree bound 0: no power up to 40 has a
        # certificate, which the loop from m = 1 took 40 systems to say.
        g = x(0, 1) - const(I, 1)
        checked = []

        def check(*args, original=mpoly._one_variable_check):
            checked.append(args[4])
            return original(*args)

        monkeypatch.setattr(mpoly, "_one_variable_check", check)
        out = find_certificate(LeftIdeal((g * g,)), g, J, 40, 0)
        assert out == NotFoundWithinBounds(40, 0) and not out.every_power
        assert checked == [1, 40]

    def test_a_non_member_at_every_power_is_answered_at_once(self):
        # p = 1 does not vanish at i; the search used to try every power.
        ideal = LeftIdeal((x(0, 1) - const(I, 1),))
        start = time.perf_counter()
        out = find_certificate(ideal, const(ONE, 1), ONE, 1000, 1)
        assert time.perf_counter() - start < 5
        assert out == NotFoundWithinBounds(1000, 1) and out.every_power
        # The flag takes no part in equality, and a search that stops below
        # the least member power does not set it.
        assert NotFoundWithinBounds(1000, 1, every_power=True) == NotFoundWithinBounds(1000, 1)
        g = x(0, 1) - const(I, 1)
        out = find_certificate(LeftIdeal((g * g * g,)), g, ONE, 2, 5)
        assert out == NotFoundWithinBounds(2, 5) and not out.every_power
        assert find_certificate(LeftIdeal((g * g * g,)), g, ONE, 3, 5)[0] == 3

    def test_the_bisection_takes_the_lower_half(self, monkeypatch):
        # Least member power 1 with no certificate at degree bound 2, and
        # certificates from N = 3 on: the search checks 1 and 4, then 2
        # (none, so the lower end moves up) and 3.
        ideal = LeftIdeal((parse_mpoly("x^4 + (2i + 2j - 4k)x^3 + (-6 + 2i + 2j + 2k)x^2 - 3", 1),))
        p, a = parse_mpoly("x + (-2 + i + 2j + k)", 1), parse_quat("-i - j - 2k")
        loop = [isinstance(rabinowitsch_check(ideal, p, a, N, 2), RabinowitschCertificate) for N in range(1, 5)]
        assert loop == [False, False, True, True]
        checked = []

        def check(*args, original=mpoly._one_variable_check):
            checked.append(args[4])
            return original(*args)

        monkeypatch.setattr(mpoly, "_one_variable_check", check)
        out = find_certificate(ideal, p, a, 4, 2)
        assert checked == [1, 4, 2, 3]
        assert out[0] == 3 and _reconstructs(ideal, p, a, out[1])


class TestSystemBound:
    """A certificate system is estimated from degrees before it is built,
    at each degree it is solved at, and refused with InvalidInput past
    16,000 quaternion entries."""

    def test_the_flagship_system_just_below_and_just_above_the_bound(self):
        # I = H[x](x - i)^2, p = x - i, a = j: the least member power is 1
        # with cofactors of degree 1, so at degree bound 0 the system over
        # every base runs, with (N + 1)(N + 3) entries at degree 0.
        assert BOUNDS["system_entries"][0] == 16_000
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g * g,))
        assert rabinowitsch_check(ideal, g, J, 124, 0) == NotFoundWithinBounds(124, 0)  # 15,875
        with pytest.raises(InvalidInput) as info:
            rabinowitsch_check(ideal, g, J, 125, 0)
        assert str(info.value) == (
            "certificate system of up to 16128 quaternion entries at cofactor degree 0, above the bound of 16000"
        )

    def test_a_system_past_the_bound_forms_no_power(self, monkeypatch):
        # The estimate reads degrees alone, so (j(x - i))^N is never formed
        # for a power whose system is refused, in a check or in a search;
        # where the chain's cofactors fit, no system runs and none is
        # refused.
        g = x(0, 1) - const(I, 1)
        ideal = LeftIdeal((g * g,))
        powers = mpoly._powers

        def refuse(ap, N):
            assert N <= 2, N
            return powers(ap, N)

        monkeypatch.setattr(mpoly, "_powers", refuse)
        with pytest.raises(InvalidInput, match="above the bound of 16000"):
            rabinowitsch_check(ideal, g, J, 10**6, 0)
        with pytest.raises(InvalidInput, match="1004003 quaternion entries at cofactor degree 0"):
            find_certificate(ideal, g, J, 1000, 0)
        monkeypatch.setattr(mpoly, "_powers", powers)
        assert find_certificate(ideal, g, J, 40, 0) == NotFoundWithinBounds(40, 0)
        assert find_certificate(ideal, g, J, 1000, 1)[0] == 1

    def test_the_bound_is_checked_at_each_degree(self):
        # Over the bases x1, x2, x3 the system at degree d has up to
        # 3 * C(d + 3, 3) * C(d + 4, 3) entries: 14,112 at d = 5 and 30,240
        # at d = 6.  The constant 1 is in no degree's span, so every degree
        # up to the bound is solved and degree 6 is refused; x1 is reached
        # at degree 0, whatever the bound.
        bases = [x(i, 3) for i in range(3)]
        assert _bounded_cofactors(3, bases, const(ONE, 3), 5) is None
        with pytest.raises(InvalidInput) as info:
            _bounded_cofactors(3, bases, const(ONE, 3), 6)
        assert str(info.value) == (
            "certificate system of up to 30240 quaternion entries at cofactor degree 6, above the bound of 16000"
        )
        assert _bounded_cofactors(3, bases, x(0, 3), 20) == [const(ONE, 3), MPoly(3, {}), MPoly(3, {})]


class TestPowerBound:
    """In several variables the terms of (a*p)^N are estimated from degrees
    before any power is formed, as the parser bounds a power, and refused
    with InvalidInput past 1,000."""

    IDEAL = LeftIdeal((x(0, 2) - const(I, 2), x(1, 2) - const(Quat(0, 2), 2)))
    P = x(0, 2) + x(1, 2) + const(ONE, 2)

    def test_the_power_just_below_and_just_above_the_bound(self):
        # (x1 + x2 + 1)^N has C(N + 2, 2) terms: 990 at N = 43, 1,035 at 44.
        assert BOUNDS["terms"][0] == 1_000
        mpoly._bound_power_terms(self.P, 43)
        with pytest.raises(InvalidInput) as info:
            mpoly._bound_power_terms(self.P, 44)
        assert str(info.value) == "power (a*p)^44 of up to 1035 terms, above the bound of 1000"
        # One term, a unit times a monomial, or zero never grows.
        mpoly._bound_power_terms(x(0, 2).scale_left(J), 10**6)
        mpoly._bound_power_terms(MPoly(2, {}), 10**6)

    def test_a_refused_probe_refuses_the_search_and_forms_no_power(self, monkeypatch):
        # The search probes N = 1, then max_power; the probe at 200 is refused
        # before (x1 + x2 + 1)^200 is formed.
        powers = mpoly._powers

        def refuse(ap, N):
            assert N <= 2, N
            return powers(ap, N)

        monkeypatch.setattr(mpoly, "_powers", refuse)
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match=r"power \(a\*p\)\^200 of up to 20301 terms, above the bound of 1000"):
            find_certificate(self.IDEAL, self.P, ONE, 200, 0)
        with pytest.raises(InvalidInput, match="of up to 1035 terms"):
            rabinowitsch_check(self.IDEAL, self.P, ONE, 44, 0)
        assert time.perf_counter() - start < 5

    def test_a_search_within_the_bound_still_answers(self):
        # (x1 + x2 + 1)^40 has 861 terms; the search answers not-found.
        assert find_certificate(self.IDEAL, self.P, ONE, 40, 0) == NotFoundWithinBounds(40, 0)


class TestDensePowerBound:
    """In one variable, when the chain's cofactors fit, (a*p)^N is estimated
    at N*deg(a*p) + 1 dense coefficients before any power is formed, and
    refused with InvalidInput past 1,250."""

    G = x(0, 1) - const(I, 1)
    IDEAL = LeftIdeal((G * G,))

    def test_the_power_just_below_and_just_above_the_bound(self):
        assert BOUNDS["dense_power"][0] == 1_250
        ap = self.G.scale_left(J)
        mpoly._bound_dense_power(ap, 1249)
        with pytest.raises(InvalidInput) as info:
            mpoly._bound_dense_power(ap, 1250)
        assert str(info.value) == "power (a*p)^1250 of up to 1251 coefficients, above the bound of 1250"
        # Degree 2: 1,249 coefficients at N = 624 and 1,251 at 625.
        mpoly._bound_dense_power(ap * ap, 624)
        with pytest.raises(InvalidInput, match=r"power \(a\*p\)\^625 of up to 1251 coefficients"):
            mpoly._bound_dense_power(ap * ap, 625)
        # A constant has one coefficient at every power.
        mpoly._bound_dense_power(const(J, 1), 10**6)

    def test_coefficient_words_just_below_and_just_above_the_bound(self):
        # With a = 123456789j a factor adds log2(123456789) = 26.9 bits to a
        # coefficient: 53 factors fill 1 + 1424 // 64 = 23 words, and
        # 54 * 23 = 1,242 coefficient words fit; 54 factors make 55 * 23.
        # Unweighted, N = 1249 took 34.8 s one-shot.
        ap = self.G.scale_left(Quat(0, 0, 123456789))
        mpoly._bound_dense_power(ap, 53)
        for N, message in [
            (54, "power (a*p)^54 of up to 55 coefficients of 23 words each, above the bound of 1250"),
            (1249, "power (a*p)^1249 of up to 1250 coefficients of 525 words each, above the bound of 1250"),
        ]:
            with pytest.raises(InvalidInput) as info:
                mpoly._bound_dense_power(ap, N)
            assert str(info.value) == message
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match=r"\(a\*p\)\^1249 of up to 1250 coefficients of 525 words"):
            rabinowitsch_check(self.IDEAL, self.G, Quat(0, 0, 123456789), 1249, 2)
        assert time.perf_counter() - start < 1

    def test_a_refused_check_forms_no_power(self, monkeypatch):
        def refuse(ap, N):
            raise AssertionError(f"formed powers up to {N}")

        monkeypatch.setattr(mpoly, "_powers", refuse)
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match=r"power \(a\*p\)\^1000000 of up to 1000001 coefficients, above the bound of 1250"):
            rabinowitsch_check(self.IDEAL, self.G, J, 10**6, 2)
        with pytest.raises(InvalidInput, match="of up to 1251 coefficients"):
            rabinowitsch_check(self.IDEAL, self.G, J, 1250, 2)
        assert time.perf_counter() - start < 5

    def test_a_search_that_finds_its_least_power_still_answers(self):
        # The search checks the least member power, 1, first, and stops there.
        N, cert = find_certificate(self.IDEAL, self.G, J, 10**6, 2)
        assert N == 1 and cert == rabinowitsch_check(self.IDEAL, self.G, J, 1, 2)


def _coefficients(rng):
    """Small random quaternions, or small elements of one subfield Q(u).
    In Q(u) the variables and coefficients commute, so every g*(ap)^k lies
    in I, J_N is I, and non-members are common."""
    if rng.random() < 0.5:
        return lambda: rand_quat(rng, 2)
    u = rand_pure_quat(rng, 2)
    return lambda: Quat(rng.randint(-2, 2)) + u * rng.randint(-2, 2)


def _random_mpoly(rng, coeff, nvars, degree, nterms):
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = coeff()
    return MPoly(nvars, terms)


def _module(polys, ring):
    """The left ideal of polys as the Q[X]-submodule of Q[X]^4 spanned by
    the unit multiples e*f, e in 1, i, j, k."""
    return ring.free_module(4).submodule(
        *(_vector(f.scale_left(e), ring) for f in polys for e in (ONE, I, J, K) if f)
    )


def _vector(f, ring):
    monomials = {e: prod(s**n for s, n in zip(ring.symbols, e)) for e in f.terms}
    return [
        sum((Rational(c.coords()[m]) * monomials[e] for e, c in f.terms.items()), Rational(0))
        for m in range(4)
    ]


def _from_vector(vector, ring):
    terms = {}
    for m, entry in enumerate(vector):
        for e, c in Poly(ring.to_sympy(entry), *ring.symbols).terms():
            unit = [0, 0, 0, 0]
            unit[m] = Fraction(int(c.p), int(c.q))
            terms[e] = terms.get(e, ZERO) + Quat(*unit)
    return MPoly(len(ring.symbols), terms)


def _non_point_instance(rng, family, ring):
    """A seeded ideal that is not a point ideal, with p, a and N: a product
    g1*g2 beside a linear generator, a linear and a quadratic generator,
    or the intersection of two point ideals (generators from sympy)."""
    nvars = len(ring.symbols)
    coeff = _coefficients(rng)
    linear = lambda: _random_mpoly(rng, coeff, nvars, 1, 3)  # noqa: E731
    if family == "product":
        gens = (linear() * linear(), linear())
    elif family == "linear-quadratic":
        gens = (linear(), _random_mpoly(rng, coeff, nvars, 2, 3))
    else:
        u = rand_pure_quat(rng, 2)
        points = [[Quat(rng.randint(-2, 2)) + u * rng.randint(-2, 2) for _ in range(nvars)] for _ in range(2)]
        meet = _module(point_ideal(CommutingPoint(points[0])).gens, ring).intersect(
            _module(point_ideal(CommutingPoint(points[1])).gens, ring)
        )
        gens = tuple(_from_vector(g, ring) for g in meet.gens)
    p = linear() if rng.random() < 0.7 else linear() * gens[0]
    a = rng.choice((ONE, coeff()))
    return LeftIdeal(gens), p, a, rng.randint(1, 2) if len(gens) <= 2 else 1


class TestGroebnerMembership:
    """Several variables decide membership by a left Groebner basis.  The
    oracle is sympy's membership in the Q[X]-submodule of Q[X]^4 spanned by
    the unit multiples of the bases, which is the left ideal they generate."""

    def test_agrees_with_submodule_membership(self):
        rng = Random(41)
        held_by = Counter()
        for family in ("product", "linear-quadratic", "intersection") * 6:
            nvars = 2 if family == "intersection" else rng.choice((2, 3))
            ring = QQ.old_poly_ring(*symbols(f"x1:{nvars + 1}"))
            ideal, p, a, N = _non_point_instance(rng, family, ring)
            powers, bases = _powers_and_bases(ideal, p, a, N)
            k = _membership(ideal.gens, powers, 10**9)
            module = _module(ideal.gens, ring)
            in_ideal = [module.contains(_vector(power, ring)) for power in powers[1:]]
            if any(in_ideal):
                assert k == in_ideal.index(True) + 1
            elif _module(bases, ring).contains(_vector(powers[N], ring)):
                assert k == N + 1
            else:
                assert k == 0
            held_by["I" if 1 <= k <= N else "J_N" if k else "none"] += 1
            # A certificate from the system always means a member.
            if not k:
                for degbound in range(3):
                    found = _bounded_certificate(ideal, bases, powers, degbound)
                    assert isinstance(found, NotFoundWithinBounds)
        assert set(held_by) == {"I", "J_N", "none"}

    @pytest.mark.parametrize("seed, degbound", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 3)])
    def test_a_pass_past_its_budget_gives_the_system_outcome(self, seed, degbound):
        # Two random generators of degree <= 4 in three variables: without a
        # budget the pass on seed 0 was still running after 20 s, its
        # coefficients growing fast, while the degree-0 system answers in
        # milliseconds.  The budget stops the pass, and the system's answer
        # stands.  At degree bound 3 the system takes about 0.3 s, and a
        # budget of products not weighted by their size let the pass run
        # for 17.6 s.
        rng = Random(seed)
        coeff = lambda: rand_nonzero_quat(rng, 2)  # noqa: E731
        ideal = LeftIdeal(tuple(_random_mpoly(rng, coeff, 3, 4, 4) for _ in range(2)))
        p, a = _random_mpoly(rng, coeff, 3, 1, 2), rand_nonzero_quat(rng, 2)
        powers, bases = _powers_and_bases(ideal, p, a, 1)
        start = time.perf_counter()
        assert _membership(ideal.gens, powers, _groebner_budget(ideal.gens, p.scale_left(a), 1, degbound)) is None
        out = rabinowitsch_check(ideal, p, a, 1, degbound)
        assert time.perf_counter() - start < 5
        assert type(out) is type(_bounded_certificate(ideal, bases, powers, degbound))

    def test_the_budget_from_degrees_equals_the_one_from_the_bases(self):
        # H[X] is a domain, so deg g*(ap)^k = deg g + k*deg ap and the
        # budget needs no base built; a*p = 0 and a zero generator add no
        # degree.
        rng = Random(53)
        instances = [_point_instance(rng, nvars, degree) for nvars in (2, 3) for degree in (-1, 0, 1)]
        for family in ("product", "linear-quadratic", "intersection"):
            ring = QQ.old_poly_ring(*symbols(f"x1:{3 if family == 'intersection' else rng.choice((3, 4))}"))
            instances.append(_non_point_instance(rng, family, ring)[:3])
        for ideal, p, a in instances:
            nvars, zero = ideal.nvars, MPoly(ideal.nvars, {})
            variants = [(ideal, a), (ideal, ZERO), (LeftIdeal(ideal.gens + (zero,)), a), (LeftIdeal((zero,)), a)]
            for ideal, a in variants:
                for N in (1, 2, 3):
                    _, bases = _powers_and_bases(ideal, p, a, N)
                    top = max((sum(e) for base in bases for e in base.terms), default=0)
                    for degbound in range(4):
                        built = len(bases) * comb(nvars + degbound, nvars) * comb(nvars + degbound + top, nvars)
                        assert _groebner_budget(ideal.gens, p.scale_left(a), N, degbound) == built

    def test_a_first_power_outside_I_is_reduced_once(self, monkeypatch):
        # At N = 1, (ap)^N is ap itself: once the basis of I leaves ap
        # unreduced, it is not reduced again before the other bases join.
        # p(i, 2i) = 1 + i, and a = j makes J_1 the whole ring.
        ideal = point_ideal(CommutingPoint([I, Quat(0, 2)]))
        p = x(0, 2) + const(ONE, 2)
        ap = p.scale_left(J)
        events = []
        reduce, add = mpoly._LeftBasis.reduce, mpoly._LeftBasis.add

        def spy_reduce(basis, terms):
            terms = dict(terms)
            events.append(terms == ap.terms)
            return reduce(basis, terms)

        def spy_add(basis, polys):
            events.append("add")
            return add(basis, polys)

        monkeypatch.setattr(mpoly._LeftBasis, "reduce", spy_reduce)
        monkeypatch.setattr(mpoly._LeftBasis, "add", spy_add)
        assert isinstance(rabinowitsch_check(ideal, p, J, 1, 1), RabinowitschCertificate)
        assert events.count("add") == 2
        second = events.index("add", 1)
        assert events[:second].count(True) == 1
        assert events[second:].count(True) == 1


def _point_instance(rng, nvars, degree):
    """A point ideal with p and a.  For a degree >= 0, p = sum_i q_i*(x_i - a_i)
    with deg q_i <= degree, so ap lies in the ideal I; for degree -1 the
    point, p and a lie in one subfield Q(u) and p does not vanish at the
    point."""
    u = rand_pure_quat(rng, 2)
    field = lambda: Quat(rng.randint(-2, 2)) + u * rng.randint(-2, 2)  # noqa: E731
    point = CommutingPoint([field() for _ in range(nvars)])
    ideal = point_ideal(point)
    if degree >= 0:
        quat = lambda: rand_quat(rng, 2)  # noqa: E731
        p = MPoly(nvars, {})
        for g in ideal.gens:
            p = p + _random_mpoly(rng, quat, nvars, degree, 2) * g
        return ideal, p, rand_nonzero_quat(rng, 2)
    while True:
        p, a = _random_mpoly(rng, field, nvars, 1, 3), field()
        if a and eval_at_point(p, point):
            return ideal, p, a


class TestLiftedCertificates:
    """When I holds (ap)^k for some k <= N, one system lifts the least such
    power, (ap)^k = sum_j h_j*g_j, over the generators, and h in row N-k
    certifies (ap)^N.  The oracle is the bounded system over every base
    g_j*(ap)^k."""

    def test_outcomes_agree_with_the_system_over_every_base(self):
        rng = Random(43)
        # Powers up to 4 in two variables, 2 in three and for the ideals
        # that are not point ideals, and 1 for intersections of up to 10
        # generators keep the oracle's systems small: at N = 3 and degree 2
        # an intersection's took 6 s on a shared 2-core host.
        instances = [(_point_instance(rng, 2, degree), 4) for degree in (-1, -1, 0, 1)]
        instances += [(_point_instance(rng, 3, degree), 2) for degree in (-1, 0)]
        for family in ("product", "linear-quadratic", "intersection"):
            ring = QQ.old_poly_ring(*symbols(f"x1:{3 if family == 'intersection' else rng.choice((3, 4))}"))
            instances.append((_non_point_instance(rng, family, ring)[:3], 1 if family == "intersection" else 2))
        # The two-variable flagship analog: I holds (ap)^3 but not (ap)^2.
        analog = LeftIdeal((parse_mpoly("(x1 - i)^2", 2), parse_mpoly("x2", 2)))
        instances.append(((analog, parse_mpoly("x1 - i", 2), J), 5))
        seen = Counter()
        for (ideal, p, a), top in instances:
            for N in range(1, top + 1):
                powers, bases = _powers_and_bases(ideal, p, a, N)
                k = _membership(ideal.gens, powers, 10**9)
                for degbound in range(3):
                    out = rabinowitsch_check(ideal, p, a, N, degbound)
                    assert type(out) is type(_bounded_certificate(ideal, bases, powers, degbound))
                    if isinstance(out, NotFoundWithinBounds):
                        seen["not-found"] += 1
                        continue
                    assert out.N == N and _reconstructs(ideal, p, a, out)
                    lifted = 1 <= k <= N and _bounded_cofactors(ideal.nvars, list(ideal.gens), powers[k], degbound)
                    if lifted:
                        assert not any(h for row, hs in enumerate(out.cofactors) if row != N - k for h in hs)
                        seen["lifted" if k == 1 else "lifted from a higher power"] += 1
                    else:
                        seen["found"] += 1
        assert set(seen) == {"lifted", "lifted from a higher power", "found", "not-found"}

    def test_a_lift_that_does_not_fit_falls_through(self, monkeypatch):
        # I holds ap, but its lift needs cofactors of degree 3; at degree
        # bounds 1 and 2 the system over every g_j*(ap)^k certifies every
        # power instead (a seeded `product` instance).
        gens = tuple(
            parse_mpoly(text, 2)
            for text in (
                "(i - k)x1 + (1 + 2i + 2j + 2k)x2 + (-2 - 2i + j - k)",
                "(1 - 2i - j)x1x2 + (2 - i - 1/2j + 2k)x1 + (1 + 2i - j)",
            )
        )
        ideal = LeftIdeal(gens)
        p = parse_mpoly("(-1/2 - 1/2i - 1/2j - k)x1 + (2 + i + 2j + k)x2", 2)
        a = parse_quat("1/2 - i - 1/2j + k")
        ap = p.scale_left(a)
        assert _membership(gens, [MPoly.constant(ONE, 2), ap], 10**9) == 1
        assert [_bounded_cofactors(2, list(gens), ap, d) is None for d in range(4)] == [True] * 3 + [False]
        # At N = 1 and degree bound 1, rref gets the lift systems over the
        # two generators at degrees 0 and 1, then the systems over all four
        # bases from degree 0 up, which is consistent at 1: four rational
        # columns per (base, monomial of degree <= d).
        columns = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda rows, ncols: columns.append(ncols) or rref(rows, ncols))
        out = rabinowitsch_check(ideal, p, a, 1, 1)
        assert isinstance(out, RabinowitschCertificate)
        assert columns == [4 * 2 * 1, 4 * 2 * 3, 4 * 4 * 1, 4 * 4 * 3]
        assert _largest_degree(h for row in out.cofactors for h in row) == 1
        for N in (1, 2, 3):
            assert isinstance(rabinowitsch_check(ideal, p, a, N, 0), NotFoundWithinBounds)
            for degbound in (1, 2):
                out = rabinowitsch_check(ideal, p, a, N, degbound)
                assert isinstance(out, RabinowitschCertificate) and _reconstructs(ideal, p, a, out)
                assert any(h for h in out.cofactors[0])


def _largest_degree(flat):
    return max((sum(e) for h in flat for e in h.terms), default=0)


class TestLeastDegreeCofactors:
    """`_bounded_cofactors` solves its system from the least degree up, so
    its cofactors have the least largest degree d*: the call at d* - 1
    finds none, and every degree bound from d* up returns degree d*.  The
    systems are those `rabinowitsch_check` builds: the lift of each power
    (ap)^k over the generators, and (ap)^N over every g_j*(ap)^k."""

    def test_no_cofactors_below_the_least_degree_and_the_same_degree_above(self):
        rng = Random(47)
        # Degree bound 2, N <= 2 and one intersection, whose system over
        # every base at N = 2 has up to 30 bases, keep the systems small.
        instances = [_point_instance(rng, 2, degree) for degree in (-1, 0, 1, 2)]
        instances += [_point_instance(rng, 3, degree) for degree in (-1, 0, 1)]
        for family in ("product", "linear-quadratic") * 2 + ("intersection",):
            ring = QQ.old_poly_ring(*symbols(f"x1:{3 if family == 'intersection' else rng.choice((3, 4))}"))
            instances.append(_non_point_instance(rng, family, ring)[:3])
        analog = LeftIdeal((parse_mpoly("(x1 - i)^2", 2), parse_mpoly("x2", 2)))
        instances.append((analog, parse_mpoly("x1 - i", 2), J))
        top = 2
        least = Counter()
        for ideal, p, a in instances:
            nvars = ideal.nvars
            for N in (1, 2):
                powers, bases = _powers_and_bases(ideal, p, a, N)
                systems = [(list(ideal.gens), powers[k]) for k in range(1, N + 1)] + [(bases, powers[N])]
                for system, target in systems:
                    flat = _bounded_cofactors(nvars, system, target, top)
                    if flat is None:
                        least[None] += 1
                        continue
                    d = _largest_degree(flat)
                    assert d <= top
                    assert sum((h * base for h, base in zip(flat, system)), MPoly(nvars, {})) == target
                    if d:
                        assert _bounded_cofactors(nvars, system, target, d - 1) is None
                    for degbound in range(d, top + 1):
                        assert _largest_degree(_bounded_cofactors(nvars, system, target, degbound)) == d
                    least[d] += 1
        assert {None, 0, 1, 2} <= set(least)
