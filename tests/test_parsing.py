"""Grammar round trips and JSON forms."""

from fractions import Fraction as F
from random import Random

import pytest

from quatca import serde
from quatca.errors import ParseError
from quatca.modules import ModulePresentation
from quatca.mpoly import MPoly
from quatca.parsing import parse_mpoly, parse_quat, parse_quat_list, parse_upoly
from quatca.randgen import rand_mpoly, rand_quat, rand_upoly
from quatca.scalars import I, J, K, ONE, Quat, ZERO
from quatca.upoly import UPoly


class TestQuatGrammar:
    def test_mixed_literal(self):
        assert parse_quat("1 - 2/3i + k") == Quat(1, F(-2, 3), 0, 1)

    def test_whitespace_insensitive(self):
        assert parse_quat("1-2/3i+j-k") == parse_quat(" 1 - 2/3 i + j - k ")

    def test_bare_units_and_signs(self):
        assert parse_quat("j") == J
        assert parse_quat("-k") == -K
        assert parse_quat("i+i") == 2 * I

    def test_products_of_units(self):
        assert parse_quat("ij") == K
        assert parse_quat("2(1+i)") == Quat(2, 2)

    def test_rejects_variables(self):
        with pytest.raises(ParseError):
            parse_quat("x + 1")

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_quat("1 + $")
        assert info.value.position == 4

    def test_list(self):
        assert parse_quat_list("1, i ,k") == [ONE, I, K]


class TestUPolyGrammar:
    def test_spec_style_literal(self):
        p = parse_upoly("(1+i)x^2 - 2/3jx + k")
        assert p == UPoly([K, J * F(-2, 3), Quat(1, 1)])

    def test_power_of_parenthesized_factor(self):
        assert parse_upoly("(x-i)^2") == UPoly.linear(I) * UPoly.linear(I)

    def test_order_of_factors_matters(self):
        assert parse_upoly("jx") == UPoly([ZERO, J])
        assert parse_upoly("(x-i)j") == UPoly([-K, J])  # (x-i)*j = jx - ij = jx - k

    def test_zero(self):
        assert parse_upoly("0") == UPoly()

    def test_round_trip_randomized(self):
        rng = Random(21)
        for _ in range(300):
            p = rand_upoly(rng, 5)
            assert parse_upoly(str(p)) == p
            q = rand_quat(rng)
            assert parse_quat(str(q)) == q


class TestMPolyGrammar:
    def test_two_variable_literal(self):
        p = parse_mpoly("x1x2 - k", 2)
        assert p == MPoly(2, {(1, 1): ONE, (0, 0): -K})

    def test_plain_x_is_x1(self):
        assert parse_mpoly("x", 2) == MPoly.variable(0, 2)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_mpoly("x3", 2)

    def test_prints_in_descending_graded_order(self):
        p = parse_mpoly("1 + x2 + ix1 - x1x2 + 2x2^2 + x1^2", 2)
        assert str(p) == "x1^2 - x1x2 + 2x2^2 + ix1 + x2 + 1"

    def test_round_trip_randomized(self):
        rng = Random(22)
        for _ in range(200):
            nvars = rng.randint(1, 3)
            p = rand_mpoly(rng, nvars, 4)
            assert parse_mpoly(str(p), nvars) == p


class TestJsonForms:
    def test_quat_object_shape(self):
        q = Quat(1, F(-2, 3), 1, -1)
        assert serde.quat_to_json(q) == {"w": "1", "x": "-2/3", "y": "1", "z": "-1"}
        assert serde.quat_from_json(serde.quat_to_json(q)) == q

    def test_upoly_low_to_high(self):
        p = UPoly([K, -J, Quat(1, 1)])
        blob = serde.upoly_to_json(p)
        assert blob[0] == serde.quat_to_json(K)
        assert serde.upoly_from_json(blob) == p

    def test_module_row_major_round_trip(self):
        module = ModulePresentation(
            2, [[[I, ZERO], [ZERO, J]], [[Quat(2), ZERO], [ZERO, Quat(2)]]]
        )
        blob = serde.module_to_json(module)
        assert blob["m"] == 2
        assert blob["mats"][0][0][0] == serde.quat_to_json(I)
        assert serde.module_from_json(blob) == module

    def test_mpoly_terms_in_graded_order(self):
        p = parse_mpoly("1 + x2 + ix1 - x1x2 + 2x2^2 + x1^2", 2)
        exps = [term["exps"] for term in serde.mpoly_to_json(p)["terms"]]
        assert exps == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]

    def test_mpoly_round_trip_randomized(self):
        rng = Random(23)
        for _ in range(100):
            p = rand_mpoly(rng, rng.randint(1, 3), 4)
            assert serde.mpoly_from_json(serde.mpoly_to_json(p)) == p
