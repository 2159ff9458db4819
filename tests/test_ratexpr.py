"""The recursive rational criteria: their recursion, strict evaluation, and
agreement with the linear-algebra oracles."""

from fractions import Fraction as F
from random import Random

import pytest

from quatca.errors import InvalidInput
from quatca.randgen import rand_quat
from quatca.ratexpr import (
    _criterion,
    algebraicity_witness,
    independent_via_criterion,
    independent_via_rank,
    left_degree_via_criterion,
    left_degree_via_rank,
    right_degree,
)
from quatca.scalars import I, J, K, ONE, Quat, ZERO, centralizer_of_set, commutator


def _recursive_independence(a, bs):
    # The criterion as first defined: the criterion for n - 1 vectors at
    # [a, b_m * b_n^-1], m < n, undefined where b_n is zero.
    if len(bs) == 1:
        return bs[0]
    if bs[-1] == ZERO:
        return None
    last_inv = bs[-1].inverse()
    return _recursive_independence(a, [a * (b * last_inv) - (b * last_inv) * a for b in bs[:-1]])


def _recursive_degree(a, b, n):
    # The (n+1)-vector criterion instantiated at (1, b, b^2, ..., b^n).
    return _recursive_independence(a, [b**k for k in range(n + 1)])


class TestConstruction:
    """The criterion's recursion, one step at a time."""

    def test_single_vector_criterion_is_the_vector(self):
        assert _criterion(I, [Quat(2, 0, 3)]) == Quat(2, 0, 3)
        assert _criterion(I, [ZERO]) == ZERO

    def test_two_vector_criterion_unfolds_to_commutator(self):
        a, b1, b2 = Quat(1, 2), Quat(0, 1, 3), Quat(2, 0, 0, -1)
        assert _criterion(a, [b1, b2]) == commutator(a, b1 * b2.inverse())

    def test_three_vector_criterion_nests_once(self):
        a, b1, b2, b3 = Quat(1, 2), Quat(0, 1, 3), Quat(2, 0, 0, -1), Quat(1, 1, 1)
        c1 = commutator(a, b1 * b3.inverse())
        c2 = commutator(a, b2 * b3.inverse())
        assert c2 != ZERO
        assert _criterion(a, [b1, b2, b3]) == commutator(a, c1 * c2.inverse())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_independence_matches_recursive_definition(self, n):
        rng = Random(97 + n)
        for trial in range(20):
            a = rand_quat(rng, 3)
            bs = [rand_quat(rng, 3) for _ in range(n)]
            if trial % 4 == 0:
                bs[rng.randrange(n)] = ZERO
            assert _criterion(a, bs) == _recursive_independence(a, bs)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_degree_matches_recursive_definition(self, n):
        rng = Random(89 + n)
        for _ in range(20):
            a, b = rand_quat(rng, 3), rand_quat(rng, 3)
            powers = [ONE, b]
            for _ in range(n - 1):
                powers.append(powers[-1] * b)
            assert _criterion(a, powers) == _recursive_degree(a, b, n)


class TestEvaluation:
    def test_two_vector_value(self):
        assert _criterion(I, [ONE, J]) == -2 * K

    def test_inversion_of_zero_is_undefined(self):
        assert _criterion(I, [ONE, ZERO]) is None
        assert _criterion(I, [ONE, J, ZERO]) is None

    def test_strictness_propagates_through_multiplication_by_zero(self):
        # 0 * 0^-1 is undefined, not zero.
        assert _criterion(I, [ZERO, ZERO]) is None
        # A central a sends every commutator to zero; the second step then
        # inverts that zero, whatever it multiplies.
        assert _criterion(Quat(F(7, 2)), [ONE, I, J]) is None

    def test_zero_before_the_last_vector_is_defined(self):
        assert _criterion(I, [ZERO, J]) == ZERO
        assert _criterion(I, [ZERO, ONE, J]) == ZERO

    def test_undefined_at_a_later_step(self):
        # b_2 and b_3 are independent over C(i) = Q(i), but [i, b_2 b_3^-1]
        # vanishes once b_2 is a Q(i)-multiple of b_3.
        assert _criterion(I, [ONE, Quat(1, 1) * J, J]) is None


class TestDegreeCriterionValues:
    def test_first_criterion_shape(self):
        # the two-vector criterion at (i, 1, j):
        # [i, j^-1] = [i, -j] = -(ij - ji) = -2k
        assert _criterion(I, [ONE, J]) == -2 * K

    def test_degree_two_instance_vanishes(self):
        assert _criterion(I, [ONE, J, J * J]) == ZERO

    def test_degree_one_instance_vanishes_for_member(self):
        b = Quat(1, 1)
        assert _criterion(I, [ONE, b]) == ZERO


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

    def test_agreement_with_zero_vectors_and_central_a(self):
        # The strict path: a zero vector planted at every position, and a
        # central or zero a, whose commutators all vanish.
        rng = Random(113)
        for trial in range(300):
            size = rng.randint(1, 4)
            a = (rand_quat(rng, 5), Quat(rng.randint(-3, 3)), ZERO)[trial % 3]
            bs = [rand_quat(rng, 5) for _ in range(size)]
            for pos in range(size):
                planted = bs[:pos] + [ZERO] + bs[pos + 1:]
                assert not independent_via_rank(a, planted)
                assert independent_via_criterion(a, planted) is False
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
            value = _criterion(a, bs)
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

    def test_central_a_and_members_of_the_centralizer(self):
        # Over C(a) = H, and for b in C(a), x - b is the minimal polynomial.
        rng = Random(127)
        for _ in range(100):
            b = rand_quat(rng, 5)
            for a in (ZERO, Quat(rng.randint(-3, 3)), Quat(F(rng.randint(1, 9), rng.randint(1, 9)))):
                assert left_degree_via_criterion(a, b) == 1
                assert left_degree_via_rank(a, b) == 1
            a = rand_quat(rng, 5)
            member = Quat(rng.randint(-3, 3)) + a * Quat(rng.randint(-3, 3))
            assert left_degree_via_criterion(a, member) == 1
            assert left_degree_via_rank(a, member) == 1

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
