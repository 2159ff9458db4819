"""The recursive rational criteria: construction, strict evaluation, and
agreement with the linear-algebra oracles."""

from fractions import Fraction as F
from random import Random

import pytest

from quatca.errors import InvalidInput
from quatca.randgen import rand_quat
from quatca.ratexpr import (
    Const,
    Inv,
    Mul,
    Sub,
    Var,
    algebraicity_witness,
    commutator_expr,
    degree_criterion,
    eval_expr,
    independence_criterion,
    independent_via_criterion,
    independent_via_rank,
    left_degree_via_criterion,
    left_degree_via_rank,
    right_degree,
)
from quatca.scalars import I, J, K, ONE, Quat, ZERO, centralizer_of_set


class TestConstruction:
    def test_single_vector_criterion_is_the_vector(self):
        assert independence_criterion(1) == Var(1)

    def test_two_vector_criterion_unfolds_to_commutator(self):
        expr = independence_criterion(2)
        assert expr == Sub(
            Mul(Var(0), Mul(Var(1), Inv(Var(2)))),
            Mul(Mul(Var(1), Inv(Var(2))), Var(0)),
        )

    def test_three_vector_criterion_nests_once(self):
        expr = independence_criterion(3)
        # outermost shape: commutator of x0 with c1 * c2^-1 where the c's
        # are commutators from the first unfolding
        assert isinstance(expr, Sub)
        text = repr(expr)
        assert text.count("Inv(") >= 3 and "Var(index=3)" in text

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInput):
            independence_criterion(0)
        with pytest.raises(InvalidInput):
            degree_criterion(0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_independence_matches_recursive_definition(self, n):
        assert independence_criterion(n) == _recursive_independence(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_degree_matches_recursive_definition(self, n):
        assert degree_criterion(n) == _recursive_degree(n)


def _substitute(expr, mapping):
    if isinstance(expr, Var):
        return mapping.get(expr.index, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Inv):
        return Inv(_substitute(expr.arg, mapping))
    return type(expr)(_substitute(expr.left, mapping), _substitute(expr.right, mapping))


def _recursive_independence(n):
    # The criterion as first defined: substitute [x0, x_m * x_n^-1] for each
    # x_m, m < n, into the criterion for n - 1 vectors.
    if n == 1:
        return Var(1)
    last_inv = Inv(Var(n))
    step = {m: commutator_expr(Var(0), Mul(Var(m), last_inv)) for m in range(1, n)}
    return _substitute(_recursive_independence(n - 1), step)


def _recursive_degree(n):
    # The (n+1)-vector criterion instantiated at (1, x1, x1^2, ..., x1^n).
    powers = {1: Const(F(1)), 2: Var(1)}
    for m in range(3, n + 2):
        powers[m] = Mul(powers[m - 1], Var(1))
    return _substitute(_recursive_independence(n + 1), powers)


class TestEvaluation:
    def test_two_vector_value(self):
        value = eval_expr(independence_criterion(2), [I, ONE, J])
        assert value == -2 * K

    def test_inversion_of_zero_is_undefined(self):
        assert eval_expr(Inv(Var(0)), [ZERO]) is None

    def test_constant(self):
        assert eval_expr(Const(F(5)), [ZERO]) == Quat(5)

    def test_strictness_propagates_through_multiplication_by_zero(self):
        expr = Mul(Const(F(0)), Inv(Var(0)))
        assert eval_expr(expr, [ZERO]) is None

    def test_missing_variable(self):
        with pytest.raises(InvalidInput):
            eval_expr(Var(2), [ZERO])


class TestDegreeCriterionValues:
    def test_first_criterion_shape(self):
        # one-variable instance of the two-vector criterion at (x, 1, y):
        # [i, j^-1] = [i, -j] = -(ij - ji) = -2k
        value = eval_expr(degree_criterion(1), [I, J])
        assert value == -2 * K

    def test_degree_two_instance_vanishes(self):
        assert eval_expr(degree_criterion(2), [I, J]) == ZERO

    def test_degree_one_instance_vanishes_for_member(self):
        assert eval_expr(degree_criterion(1), [I, Quat(1, 1)]) == ZERO


class TestIndependence:
    def test_examples(self):
        assert independent_via_criterion(I, [ONE, J]) is True
        assert independent_via_criterion(I, [ONE, Quat(1, 1)]) is False
        assert independent_via_criterion(Quat(3), [ZERO]) is False

    def test_full_ring_pairs_always_dependent(self):
        central = Quat(F(7, 2))
        assert independent_via_criterion(central, [ONE, I, J, K]) is False
        assert independent_via_rank(central, [ONE, I, J, K]) is False
        assert independent_via_rank(central, [K]) is True

    def test_rank_oracle_examples(self):
        assert independent_via_rank(I, [ONE, J]) is True
        assert independent_via_rank(I, [ONE, Quat(2, 3)]) is False  # both in Q(i)

    def test_empty_rejected_by_criterion(self):
        with pytest.raises(InvalidInput):
            independent_via_criterion(I, [])
        assert independent_via_rank(I, []) is True

    def test_agreement_randomized(self):
        rng = Random(101)
        for trial in range(400):
            a = rand_quat(rng, 5)
            size = rng.randint(1, 4)
            bs = [rand_quat(rng, 5) for _ in range(size)]
            if trial % 3 == 0 and size >= 2:
                c = centralizer_of_set([a])
                mixer = sum(
                    (e * Quat.scalar(rng.randint(-2, 2)) for e in c.basis()), ZERO
                )
                bs[-1] = mixer * bs[rng.randrange(size - 1)]
            assert independent_via_criterion(a, bs) == independent_via_rank(a, bs)

    def test_defined_zero_implies_dependent_with_independent_prefix(self):
        rng = Random(103)
        found = 0
        for trial in range(400):
            a = rand_quat(rng, 4)
            size = rng.randint(2, 4)
            bs = [rand_quat(rng, 4) for _ in range(size)]
            if trial % 2:
                c = centralizer_of_set([a])
                mixer = sum(
                    (e * Quat.scalar(rng.randint(-2, 2)) for e in c.basis()), ZERO
                )
                bs[-1] = mixer * bs[0]
            value = eval_expr(independence_criterion(size), [a, *bs])
            if value is not None and not value:
                found += 1
                assert not independent_via_rank(a, bs)
                assert independent_via_rank(a, bs[:-1])
        assert found > 20


class TestDegrees:
    def test_examples(self):
        assert left_degree_via_criterion(I, J) == 2
        assert left_degree_via_criterion(I, Quat(1, 2)) == 1
        assert left_degree_via_criterion(ZERO, J) == 1

    def test_degree_of_zero_vector(self):
        assert left_degree_via_criterion(I, ZERO) == 1
        assert left_degree_via_rank(I, ZERO) == 1

    def test_right_degree_examples(self):
        assert right_degree(J, I) == 2
        assert right_degree(J, Quat(2, 0, 5)) == 1  # a in the centralizer of b
        assert right_degree(I, K) == 2

    def test_agreement_and_symmetry_randomized(self):
        rng = Random(107)
        for _ in range(400):
            a = rand_quat(rng, 5)
            b = rand_quat(rng, 5)
            d = left_degree_via_rank(a, b)
            assert d in (1, 2)
            assert left_degree_via_criterion(a, b) == d
            assert right_degree(b, a) == d


class TestWitness:
    def test_gaussian_pair(self):
        assert algebraicity_witness(I, J) == [ONE, ZERO]

    def test_member_gives_linear_witness(self):
        b = Quat(2, 0, 5)
        a = Quat(1, 0, 3)  # commutes with b
        witness = algebraicity_witness(a, b)
        assert witness == [-a]

    def test_characteristic_coefficients(self):
        assert algebraicity_witness(Quat(1, 1), K) == [Quat(2), Quat(-2)]

    def test_postconditions_randomized(self):
        rng = Random(109)
        for _ in range(300):
            a = rand_quat(rng, 5)
            b = rand_quat(rng, 5)
            witness = algebraicity_witness(a, b)
            total = a ** len(witness)
            for k, coeff in enumerate(witness):
                total = total + (a**k) * coeff
            assert total == ZERO
            assert all(coeff.commutes_with(b) for coeff in witness)
