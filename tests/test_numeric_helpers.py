"""Square decompositions and the central-polynomial factorizer."""

from fractions import Fraction as F
from random import Random

from quatca.intmath import rational_sqrt, three_squares
from quatca.ratfactor import factor_central
from quatca.scalars import Centralizer, I, Quat
from quatca.upoly import Sphere, UPoly, right_roots, sphere_member_in


class TestRationalSqrt:
    def test_exact_square(self):
        assert rational_sqrt(F(4, 9)) == F(2, 3)
        assert rational_sqrt(F(0)) == 0

    def test_non_squares(self):
        assert rational_sqrt(F(2)) is None
        assert rational_sqrt(F(4, 7)) is None
        assert rational_sqrt(F(-1)) is None


class TestSquareSums:
    def test_three_square_decision_is_exact(self):
        assert three_squares(7) is None
        assert three_squares(4 * 7) is None
        assert three_squares(16 * 15 + 16 * 97) is None  # 1792 = 4^3 * 28 = 4^4 * 7
        triple = three_squares(6)
        assert triple is not None and sum(v * v for v in triple) == 6
        assert three_squares(-1) is None

    def test_three_squares_randomized(self):
        rng = Random(2)
        for _ in range(120):
            n = rng.randint(1, 10**6)
            triple = three_squares(n)
            if triple is None:
                stripped = n
                while stripped % 4 == 0:
                    stripped //= 4
                assert stripped % 8 == 7
            else:
                assert sum(v * v for v in triple) == n


class TestFactorCentral:
    def test_full_split(self):
        # x(x - 1/3)(x^2 + x + 1)
        def mul(p, q):
            out = [F(0)] * (len(p) + len(q) - 1)
            for a_idx, a in enumerate(p):
                for b_idx, b in enumerate(q):
                    out[a_idx + b_idx] += a * b
            return out

        poly = mul(mul([F(-1, 3), F(1)], [F(1), F(1), F(1)]), [F(0), F(1)])
        fac = factor_central(poly)
        assert fac.complete
        assert dict(fac.linear) == {F(0): 1, F(1, 3): 1}
        assert fac.quadratics == ((F(-1), F(1), 1),)

    def test_multiplicity(self):
        fac = factor_central([F(1), F(0), F(2), F(0), F(1)])  # (x^2+1)^2
        assert fac.quadratics == ((F(0), F(1), 2),)

    def test_irreducible_quartic_is_left_over(self):
        fac = factor_central([F(1), F(1), F(0), F(0), F(1)])
        assert fac.leftover_degree == 4
        assert not fac.complete


class TestEmptyRationalSpheres:
    def test_sphere_class_with_no_rational_points(self):
        classes, _ = right_roots(UPoly.from_central([7, 0, 1]))  # x^2 + 7
        assert classes == [Sphere(F(0), F(7))]
        # the class is nonempty over larger scalars but has no rational
        # quaternion point: 7 is not a sum of three rational squares
        assert sphere_member_in(Centralizer.full(), F(0), F(7)) is None

    def test_sphere_points_when_they_exist(self):
        member = sphere_member_in(Centralizer.full(), F(0), F(6))
        assert member is not None and member * member == Quat(-6)
        member = sphere_member_in(Centralizer.quadratic(I), F(2), F(5))
        assert member is not None
        assert member * member - member * 2 + Quat(5) == Quat(0)
