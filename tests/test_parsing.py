"""Grammar round trips and JSON forms."""

import re
import sys
import time
from fractions import Fraction as F
from functools import cache, reduce
from math import comb, gcd
from operator import add, mul
from pathlib import Path
from random import Random

import pytest

from quatca import serde
from quatca.errors import InvalidInput, ParseError
from quatca.modules import ModulePresentation
from quatca.mpoly import MPoly, _degree, _mpoly, _to_upoly
from quatca.parsing import parse_mpoly, parse_quat, parse_quat_list, parse_upoly
from quatca.randgen import rand_mpoly, rand_quat, rand_upoly
from quatca.scalars import I, J, K, ONE, Quat, ZERO, _growth, _reduced
from quatca.upoly import UPoly
from test_cli import _fuzz_argvs


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

    def test_cancelled_variables_leave_a_constant(self):
        assert parse_quat("x - x + i") == I
        assert parse_quat("2x^0") == Quat(2)

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
        assert parse_upoly("(x - i)^5") == reduce(mul, [UPoly.linear(I)] * 5)

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


def _random_sum(rng, nvars, depth):
    """The text of a random sum and its value, built from the same choices
    with `MPoly` operations."""
    text, value = _random_product(rng, nvars, depth)
    sign = rng.choice(["", "", "-", "+", " - "])
    text, value = sign + text, -value if "-" in sign else value
    for _ in range(rng.randint(0, 2)):
        term, term_value = _random_product(rng, nvars, depth)
        op = rng.choice("+-")
        text += rng.choice(["", " "]) + op + rng.choice(["", " "]) + term
        value = value - term_value if op == "-" else value + term_value
    return text, value


def _random_product(rng, nvars, depth):
    text, value = _random_power(rng, nvars, depth)
    for _ in range(rng.randint(0, 3)):
        factor, factor_value = _random_power(rng, nvars, depth)
        sep = rng.choice(["", "", " ", "*", " * "])
        if not sep and factor[0].isdigit() and (text[-1].isdigit() or text[-1] == "x"):
            sep = " "  # the digits would join a rational, an index or an exponent
        text, value = text + sep + factor, value * factor_value
    return text, value


def _random_power(rng, nvars, depth):
    text, value = _random_atom(rng, nvars, depth)
    if rng.random() < 0.3:
        k = rng.randint(0, 3)
        text, value = f"{text}^{k}", reduce(mul, [value] * k, MPoly.constant(ONE, nvars))
    return text, value


def _random_atom(rng, nvars, depth):
    roll = rng.randrange(4 if depth else 3)
    if roll == 0:
        num, den = rng.randint(0, 6), rng.choice([None, 1, 2, 3, 4])
        text = str(num) if den is None else f"{num}/{den}"
        return text, MPoly.constant(Quat(F(num, den or 1)), nvars)
    if roll == 1:
        unit = rng.choice("ijk")
        return unit, MPoly.constant({"i": I, "j": J, "k": K}[unit], nvars)
    if roll == 2:
        index = rng.randrange(nvars)
        text = rng.choice(["x", "x1"]) if index == 0 else f"x{index + 1}"
        return text, MPoly.variable(index, nvars)
    text, value = _random_sum(rng, nvars, depth - 1)
    return f"({text})", value


class TestGrammarOracle:
    def test_parse_agrees_with_polynomial_arithmetic(self):
        # Units and parenthesized factors, constant or not, in every order:
        # a product is worth the ordered product of its factors.
        rng = Random(24)
        for _ in range(300):
            nvars = rng.randint(1, 2)
            text, value = _random_sum(rng, nvars, 2)
            text = rng.choice(["", " "]) + text
            assert parse_mpoly(text, nvars) == value, text


_ERROR_CASES = [
    (parse_upoly, "1/", "expected denominator digits after '/'", 2),
    (parse_upoly, "1 / x", "expected denominator digits after '/'", 4),
    (parse_upoly, "1/0", "zero denominator", 2),
    (parse_upoly, "x0", "variable indices start at x1", 0),
    (parse_upoly, "x00", "variable indices start at x1", 0),
    (lambda t: parse_mpoly(t, 2), "x3", "variable x3 outside the 2-variable ring", 0),
    (parse_upoly, "(1", "expected ')'", 2),
    (parse_upoly, "1)", "unexpected trailing ')'", 1),
    (parse_upoly, "x^i", "exponent must be a nonnegative integer", 2),
    (parse_upoly, "x^1/2", "exponent must be a nonnegative integer", 2),
    (parse_upoly, "", "unexpected end of input", 0),
    (parse_upoly, "1 + $", "unexpected character '$'", 4),
    (parse_quat, "x", "expected a constant quaternion, found a variable", 0),
    (parse_quat, "1 + 2x", "expected a constant quaternion, found a variable", 5),
    (lambda t: parse_mpoly(t, 0), "1", "need at least one variable", 0),
    (parse_upoly, "i^x", "exponent must be a nonnegative integer", 2),
    (parse_upoly, "2^-1", "exponent must be a nonnegative integer", 2),
    (parse_upoly, "(1+i)^", "exponent must be a nonnegative integer", 6),
    (parse_upoly, "ix2", "variable x2 outside the 1-variable ring", 1),
    (parse_upoly, "i(x2)", "variable x2 outside the 1-variable ring", 2),
    (parse_upoly, "i*)", "unexpected ')'", 2),
    (parse_upoly, "x**2", "unexpected '*'", 2),
    (parse_upoly, "i^2^2", "unexpected trailing '^'", 3),
    (parse_upoly, "2*", "unexpected end of input", 2),
    (parse_quat, "2^100001", "power of more than the bound of 100000 bits", 2),
    (parse_quat, "(1/2)^100001", "power of more than the bound of 100000 bits", 6),
    (parse_quat, "(1+2i)^86136", "power of more than the bound of 100000 bits", 7),
    (parse_quat, "(3^60000)^2", "power of more than the bound of 100000 bits", 10),
    (parse_upoly, "(2x)^100001", "power of more than the bound of 100000 bits", 5),
    (parse_upoly, "(x^5 + 1)^101", "power of degree 505, above the bound of 500", 10),
    (parse_quat, "3^1000000000", "power of more than the bound of 100000 bits", 2),
    (parse_quat, "(1+2i)^1000000000", "power of more than the bound of 100000 bits", 7),
    (parse_upoly, "(x - i)^1000000000", "power of degree 1000000000, above the bound of 500", 8),
    (lambda t: parse_mpoly(t, 3), "(x1+x2+x3)^44", "power of up to 1035 terms, above the bound of 1000", 11),
    (lambda t: parse_mpoly(t, 3), "(x1+x2+x3)^160", "power of up to 13041 terms, above the bound of 1000", 11),
    (lambda t: parse_mpoly(t, 4), "(x1+x2+x3+x4)^17", "power of up to 1140 terms, above the bound of 1000", 14),
]


class TestParseErrors:
    @pytest.mark.parametrize("parse, text, message, position", _ERROR_CASES)
    def test_message_and_position(self, parse, text, message, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_upoly, "x\u00b2", "unexpected character '\u00b2' (at position 1)"),
            (parse_quat, "\u0663i", "unexpected character '\u0663' (at position 0)"),
            (parse_quat, "1/\u0663", "expected denominator digits after '/' (at position 2)"),
        ],
        ids=["superscript-two", "arabic-indic-three", "arabic-indic-denominator"],
    )
    def test_digits_are_ascii(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_deep_nesting_is_a_parse_error(self):
        # Parentheses nest at most 100 deep; the 101st is the offending token.
        with pytest.raises(ParseError) as info:
            parse_upoly("(" * 400 + "1" + ")" * 400)
        assert str(info.value) == "parentheses nested deeper than 100 (at position 100)"
        assert parse_upoly("(" * 100 + "x" + ")" * 100) == UPoly([ZERO, ONE])

    def test_whitespace_separates_tokens(self):
        assert parse_quat("1 2") == Quat(2) and parse_quat("12") == Quat(12)
        assert parse_mpoly("x 2", 2) == parse_mpoly("2x1", 2)
        assert parse_mpoly("x2", 2) == MPoly.variable(1, 2)
        assert parse_quat("3 / 4 i") == Quat(0, F(3, 4))


class TestSizeBounds:
    def test_powers_at_the_bounds_are_taken(self):
        # The power bounds, at 100,000 bits and degree 500, are inclusive.
        assert parse_quat("2^100000") == Quat(2**100000)
        assert parse_quat("(1/2)^100000") == Quat(F(1, 2**100000))
        assert parse_quat("(1+2i)^86135").norm() == 5**86135
        assert parse_mpoly("(2x)^100000", 1) == MPoly.monomial(Quat(2**100000), (100000,))
        assert parse_upoly("(x^5 + 1)^100").degree == 500

    def test_term_bound_of_a_power_of_a_sum(self):
        # At most C(n + t - 1, t - 1) terms for t terms, inclusive at 1,000;
        # 990 and 969 terms are taken, 1,035 and 1,140 refused above.
        assert len(parse_mpoly("(x1+x2+x3)^43", 3).terms) == 990
        assert len(parse_mpoly("(x1+x2+x3+x4)^16", 4).terms) == 969
        # It is also at most the number of monomials up to the degree in the
        # variables the sum uses, so one variable keeps the degree bound alone.
        assert parse_upoly("(x+x^2+x^3+x^4+x^5+x^6+x^7+x^8+x^9+x^10)^50").degree == 500
        assert len(parse_mpoly("(x1+x1^2+x1^3)^100", 3).terms) == 201

    def test_term_bound_of_a_product_of_factors(self):
        # A product of parenthesized factors is bounded before it is taken,
        # by at most t1 * t2 terms and the monomials up to the summed degree
        # in the variables used, inclusive at 1,000.
        assert len(parse_mpoly("(x1+1)^30(x2+1)^31", 2).terms) == 31 * 32
        with pytest.raises(ParseError) as info:
            parse_mpoly("(x1+1)^30(x2+1)^32", 2)
        assert str(info.value) == "product of up to 1023 terms, above the bound of 1000 (at position 9)"
        # Degree 43 in two variables: up to 990 monomials (759 are reached);
        # degree 44: 1,035.
        assert len(parse_mpoly("(x1+x2)^21(x1+x2+1)^22", 2).terms) == 759
        with pytest.raises(ParseError) as info:
            parse_mpoly("(x1+x2)^22*(x1+x2+1)^22", 3)
        assert str(info.value) == "product of up to 1035 terms, above the bound of 1000 (at position 11)"
        # Each power alone is within its bounds; the product is not.
        with pytest.raises(ParseError) as info:
            parse_upoly("(x - i)^500(x - i)^500")
        assert str(info.value) == "product of up to 1001 terms, above the bound of 1000 (at position 11)"
        with pytest.raises(ParseError) as info:
            parse_mpoly("(x1+x2+x3+x4)^16(x1+x2+x3+x4)^16", 4)
        assert str(info.value) == "product of up to 58905 terms, above the bound of 1000 (at position 16)"

    def test_work_bound_of_a_product_of_factors(self):
        # The work of a product is t1 * t2 coefficient products, inclusive at
        # 65,536, checked after the term bound: 251 * 251 = 63,001 is taken,
        # and 501 * 500 = 250,500 is refused though the result has 1,000 terms.
        assert parse_upoly("(x - i)^250(x - i)^250").degree == 500
        with pytest.raises(ParseError) as info:
            parse_upoly("(x - i)^500(x - i)^499")
        assert str(info.value) == "product of 250500 coefficient products, above the bound of 65536 (at position 11)"
        # 257 * 257 = 66,049 products for a result of 513 terms.
        with pytest.raises(ParseError) as info:
            parse_upoly("(x - i)^256(x - i)^256")
        assert str(info.value) == "product of 66049 coefficient products, above the bound of 65536 (at position 11)"
        # Each factor past the first is bounded against the product so far:
        # 251 * 101 products are taken, then 351 * 201 = 70,551 refused.
        with pytest.raises(ParseError) as info:
            parse_upoly("(x - i)^250(x - i)^100(x - i)^200")
        assert str(info.value) == "product of 70551 coefficient products, above the bound of 65536 (at position 22)"

    def test_powers_that_cannot_grow_are_unbounded(self):
        n = 10**9
        assert parse_quat(f"(-1)^{n}") == ONE
        assert parse_quat(f"(-k)^{n + 1}") == -K
        assert parse_quat(f"(0)^{n}") == ZERO
        assert parse_mpoly(f"(-jx)^{n}", 1) == MPoly.monomial(ONE, (n,))

    def test_dense_degree_bound(self):
        # A one-variable polynomial is stored dense, so its degree is
        # bounded before the coefficient list is built.
        assert parse_upoly("x^1000000").degree == 10**6
        with pytest.raises(InvalidInput) as info:
            parse_upoly("x^1000001")
        assert str(info.value) == "degree 1000001 above the bound of 1000000 for a one-variable polynomial"
        assert parse_mpoly("x^1000000000", 1) == MPoly.monomial(ONE, (10**9,))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit")
class TestDigitLimit:
    """Called as a library, where the interpreter's int<->str digit limit
    stays in force, a longer numeral is a ParseError at its digits, or
    InvalidInput from `serde`, naming the limit; lifted, it is read exactly."""

    @pytest.fixture(autouse=True)
    def cap(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    CASES = [
        (parse_quat, "1" * 5000, 0),
        (parse_upoly, "x + " + "2" * 5000, 4),
        (lambda text: parse_mpoly(text, 2), "x2^" + "3" * 4400, 3),
        (parse_quat, "1/" + "7" * 4400 + "i", 2),
        (parse_quat, "-(1 + 2j)" + "8" * 4301, 9),
        (lambda text: parse_mpoly(text, 2), "x" + "1" * 4400, 1),
    ]

    @pytest.mark.parametrize("parse, text, position", CASES)
    def test_with_the_cap_in_force(self, parse, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"numeral of more than the interpreter's limit of 4300 digits (at position {position})"
        assert info.value.position == position

    def test_a_numeral_at_the_limit_and_an_earlier_error(self):
        assert parse_quat("9" * 4300) == Quat(10**4300 - 1)
        with pytest.raises(ParseError, match=r"unexpected character '@' \(at position 0\)"):
            parse_quat("@" + "1" * 5000)
        with pytest.raises(ParseError, match=r"unexpected '\+' \(at position 3\)"):
            parse_quat("1 ++ 1/" + "3" * 5000)

    def test_serde(self):
        for value in ("1" * 5000, "-1/" + "3" * 4400):
            with pytest.raises(InvalidInput) as info:
                serde.quat_from_json({"w": value, "x": "0", "y": "0", "z": "1"})
            assert type(info.value) is InvalidInput
            assert str(info.value) == "rational of more than the interpreter's limit of 4300 digits"

    def test_output_past_the_cap(self):
        # Written out, a number past the limit is InvalidInput naming it too;
        # one at the limit prints.
        big = Quat(10**5000, 0, F(1, 3))
        outputs = [
            lambda: str(big), lambda: serde.quat_to_json(big), lambda: str(UPoly([ONE, big])),
            lambda: serde.rat_to_json(F(1, 10**5000)), lambda: str(Quat(0, F(1, 10**5000))),
            lambda: repr(Quat(10**5000)), lambda: repr(UPoly([ONE, big])),
        ]
        for write in outputs:
            with pytest.raises(InvalidInput) as info:
                write()
            assert type(info.value) is InvalidInput
            assert str(info.value) == "number of more than the interpreter's limit of 4300 digits"
        at_limit = Quat(10**4299, 0, F(1, 3))
        assert str(at_limit) == "1" + "0" * 4299 + " + 1/3j"
        assert repr(at_limit) == f"Quat(Fraction({10**4299}, 1), Fraction(0, 1), Fraction(1, 3), Fraction(0, 1))"
        assert serde.quat_to_json(at_limit)["w"] == "1" + "0" * 4299

    def test_with_the_cap_lifted(self):
        sys.set_int_max_str_digits(0)
        assert parse_quat("1" * 5000) == Quat(int("1" * 5000))
        assert parse_upoly("x + " + "2" * 5000) == UPoly([Quat(int("2" * 5000)), ONE])
        assert parse_quat("1/" + "7" * 4400 + "i") == Quat(0, F(1, int("7" * 4400)))
        big = int("1" * 5000)
        assert serde.quat_from_json({"w": "1" * 5000, "x": "0", "y": "0", "z": "1"}) == Quat(big, 0, 0, 1)
        with pytest.raises(ParseError, match=r"variable x1{4400} outside the 2-variable ring"):
            parse_mpoly("x" + "1" * 4400, 2)


class TestPrinting:
    @pytest.mark.parametrize(
        "value, text",
        [
            (ZERO, "0"),
            (-I, "-i"),
            (Quat(1, -1), "1 - i"),
            (F(2, 3) * J, "2/3j"),
            (Quat(-1, 0, F(1, 2), -1), "-1 + 1/2j - k"),
            (ONE, "1"),
            (-ONE, "-1"),
            (UPoly(), "0"),
            (UPoly([ONE]), "1"),
            (UPoly([-ONE]), "-1"),
            (UPoly([ONE, -ONE, Quat(1, 1)]), "(1 + i)x^2 - x + 1"),
            (UPoly([-ONE, F(2, 3) * J, ZERO, -ONE]), "-x^3 + 2/3jx - 1"),
            (UPoly([Quat(0, 1, 0, -1), Quat(-2)]), "-2x + (i - k)"),
            (UPoly([ZERO, K]), "kx"),
            (MPoly(2), "0"),
            (MPoly(2, {(2, 1): ONE, (1, 3): Quat(-2), (0, 1): Quat(1, 0, -1), (0, 0): -ONE}),
             "-2x1x2^3 + x1^2x2 + (1 - j)x2 - 1"),
            (MPoly(3, {(1, 0, 1): -ONE, (0, 2, 0): F(1, 2) * K}), "-x1x3 + 1/2kx2^2"),
            (MPoly(1, {(2,): ONE, (0,): -ONE}), "x1^2 - 1"),
        ],
    )
    def test_exact_text(self, value, text):
        assert str(value) == text


def _boundary_quats(rng):
    """Seeded quaternions with large, negative and zero coordinates over
    mixed denominators."""
    def coordinate():
        roll = rng.random()
        if roll < 0.25:
            return 0
        if roll < 0.5:
            return F(rng.randint(-(10**40), 10**40), rng.randint(1, 10**20))
        return F(rng.randint(-12, 12), rng.choice([1, 2, 3, 7, 12]))

    return [Quat(*(coordinate() for _ in range(4))) for _ in range(300)]


class TestJsonForms:
    def test_quat_to_json_is_str_of_each_coordinate(self):
        for q in _boundary_quats(Random(43)):
            assert serde.quat_to_json(q) == {"w": str(q.w), "x": str(q.x), "y": str(q.y), "z": str(q.z)}

    def test_quat_from_json_round_trips(self):
        for q in _boundary_quats(Random(44)):
            back = serde.quat_from_json(serde.quat_to_json(q))
            assert back == q and (back._n, back._d) == (q._n, q._d)

    def test_unreduced_rationals_read_as_their_value(self):
        obj = {"w": "2/4", "x": "-6/3", "y": "0/5", "z": "007"}
        assert serde.quat_from_json(obj) == Quat(F(1, 2), -2, 0, 7)
        assert serde.quat_from_json({"w": "-0", "x": "0/1", "y": "-3/9", "z": "5/10"})._d == 6

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"w": "1/0", "x": "0", "y": "0", "z": "0"}, "bad rational '1/0'"),
            ({"w": "+1", "x": "0", "y": "0", "z": "0"}, "bad rational '+1': expected -?digits(/digits)?"),
            ({"w": "0", "x": "1.5", "y": "0", "z": "0"}, "bad rational '1.5': expected -?digits(/digits)?"),
            ({"w": " 1", "x": "0", "y": "0", "z": "0"}, "bad rational ' 1': expected -?digits(/digits)?"),
            ({"w": 1, "x": "0", "y": "0", "z": "0"}, "rational must be a string, got 1"),
            ({"w": "1", "x": "0", "z": "0"}, "quaternion object missing field 'y'"),
            (["1", "0", "0", "0"], "quaternion must be an object, got ['1', '0', '0', '0']"),
        ],
        ids=["zero-denominator", "plus-sign", "decimal", "space", "number", "missing-key", "list"],
    )
    def test_malformed_quaternions_keep_their_messages(self, obj, message):
        with pytest.raises(InvalidInput) as info:
            serde.quat_from_json(obj)
        assert str(info.value) == message

    def test_parse_quat_inverts_printing(self):
        for q in _boundary_quats(Random(45)):
            assert parse_quat(str(q)) == q

    def test_quat_object_shape(self):
        q = Quat(1, F(-2, 3), 1, -1)
        assert serde.quat_to_json(q) == {"w": "1", "x": "-2/3", "y": "1", "z": "-1"}
        assert serde.quat_from_json(serde.quat_to_json(q)) == q

    def test_upoly_low_to_high(self):
        p = UPoly([K, -J, Quat(1, 1)])
        blob = serde.upoly_to_json(p)
        assert blob[0] == serde.quat_to_json(K)
        assert UPoly([serde.quat_from_json(o) for o in blob]) == p

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
            blob = serde.mpoly_to_json(p)
            terms = {tuple(t["exps"]): serde.quat_from_json(t["coeff"]) for t in blob["terms"]}
            assert len(terms) == len(blob["terms"])
            assert MPoly(blob["nvars"], terms) == p

# ---------------------------------------------------------------------------
# Reference parser: the per-token tokenizer and recursive parser that the
# one-scan parser replaced, kept verbatim as an oracle for values, errors
# and their positions.
# ---------------------------------------------------------------------------

_UNITS = {"i": I, "j": J, "k": K}
_MAX_NESTING = 100
_MAX_POWER_BITS = 100_000
_MAX_POWER_DEGREE = 500
_MAX_TERMS = 1_000
_MAX_PRODUCTS = 65_536

# One token after optional whitespace: a rational `num` or `num/den`, a
# unit, a variable `x` or `x<index>`, an operator, or any other character.
_TOKEN = re.compile(r"\s*(([0-9]+)(?:\s*/\s*([0-9]*))?|[ijk]|x([0-9]*)|[-+*^()]|\S)")


def _tokenize(text: str) -> list[tuple]:
    """Tokens `(kind, text, pos, value)`, kind one of "rat", "unit", "var",
    "op" and a closing "end"; a rational's value is its numerator and
    positive denominator in lowest terms, and a variable's its 0-based
    index."""
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, num, den, index = m.groups()
        pos = m.start(1)
        if num is not None:
            if den is None:
                value = int(num), 1
            elif not den:
                raise ParseError("expected denominator digits after '/'", m.start(3))
            elif not int(den):
                raise ParseError("zero denominator", m.start(3))
            else:
                n, d = int(num), int(den)
                g = gcd(n, d)
                value = n // g, d // g
            tokens.append(("rat", tok, pos, value))
        elif index is not None:
            if index and not int(index):
                raise ParseError("variable indices start at x1", pos)
            tokens.append(("var", tok, pos, int(index) - 1 if index else 0))
        elif tok in _UNITS:
            tokens.append(("unit", tok, pos, None))
        elif tok in "+-*^()":
            tokens.append(("op", tok, pos, None))
        else:
            raise ParseError(f"unexpected character {tok!r}", pos)
    tokens.append(("end", "", len(text), None))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple], nvars: int):
        self.tokens = tokens
        self.at = 0
        self.nvars = nvars
        self.depth = 0
        self.origin = (0,) * nvars

    def peek(self) -> tuple:
        return self.tokens[self.at]

    def take(self) -> tuple:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    # Only operator tokens have the texts + - * ^ ( ), so a text names one.

    def parse_expression(self) -> MPoly:
        terms: dict = {}
        sign = self.peek()[1]
        if sign in ("+", "-"):
            self.take()
        while True:
            self.parse_term(terms, -1 if sign == "-" else 1)
            sign = self.peek()[1]
            if sign not in ("+", "-"):
                return _mpoly(self.nvars, terms)
            self.take()

    def parse_term(self, terms: dict, r: int) -> None:
        """Add the product of factors that comes next, times r, into terms.

        Rationals and variables are central, so the product is
        r * x^alpha * poly * q: `poly` is the product in order of everything
        up to the last non-constant parenthesized factor (None when there is
        none) and `q` that of the units and constant parentheses after it.
        r is kept as an integer numerator over a denominator, not reduced
        until the coefficient is built."""
        alpha = [0] * self.nvars
        rd = 1
        q = poly = None
        while True:
            kind, text, pos, value = self.take()
            if kind == "rat":
                n = self.exponent(value)
                r *= value[0] ** n
                rd *= value[1] ** n
            elif kind == "unit":
                n = self.exponent()
                u = _UNITS[text] if n == 1 else _UNITS[text] ** n
                q = u if q is None else q * u
            elif kind == "var":
                if not value < self.nvars:
                    raise ParseError(f"variable {text} outside the {self.nvars}-variable ring", pos)
                alpha[value] += self.exponent()
            elif text == "(":
                if self.depth == _MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
                self.depth += 1
                inner = self.parse_expression()
                self.depth -= 1
                _, text, close, _ = self.take()
                if text != ")":
                    raise ParseError("expected ')'", close)
                n = self.exponent(inner)
                if inner.terms.keys() <= {self.origin}:
                    c = inner.terms.get(self.origin, ZERO)
                    c = c if n == 1 else c**n
                    q = c if q is None else q * c
                else:
                    inner = inner.pow(n)
                    if q is not None:
                        inner, q = inner.scale_left(q), None
                    if poly is None:
                        poly = inner
                    else:
                        products = len(poly.terms) * len(inner.terms)
                        _bound_terms(
                            "product", products, _degree(poly) + _degree(inner),
                            [*poly.terms, *inner.terms], pos,
                        )
                        if products > _MAX_PRODUCTS:
                            raise ParseError(
                                f"product of {products} coefficient products, above the bound of {_MAX_PRODUCTS}",
                                pos,
                            )
                        poly = poly * inner
            else:
                raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)
            kind, text, _, _ = self.peek()
            if text == "*":
                self.take()
            elif kind in ("op", "end") and text != "(":
                break
        if q is None:
            c = _reduced(r, 0, 0, 0, rd)
        elif r == rd:
            c = q
        else:
            (n0, n1, n2, n3), m = q._n, q._d
            c = _reduced(n0 * r, n1 * r, n2 * r, n3 * r, m * rd)
        if poly is None:
            pairs = [(tuple(alpha), c)]
        else:
            pairs = [(tuple(map(add, e, alpha)), pc * c) for e, pc in poly.terms.items()]
        for e, term in pairs:
            terms[e] = terms[e] + term if e in terms else term

    def exponent(self, base: MPoly | tuple[int, int] | None = None) -> int:
        """The `^n` after a factor, or 1 when there is none.

        A base that can grow under the power, a rational (numerator,
        denominator) or a parenthesized
        polynomial, is checked against the size bounds before the power is
        taken: a ParseError at the exponent when n times the bits one more
        factor can add to a coefficient exceeds _MAX_POWER_BITS, or when
        the base has several terms and n times its degree exceeds
        _MAX_POWER_DEGREE or the power may have more than _MAX_TERMS
        terms.  Units, variables and one-term bases whose
        coefficient is 0, -1, 1 or a signed unit, such as `(jx)`, add no
        bits and stay unbounded."""
        if self.peek()[1] != "^":
            return 1
        self.take()
        kind, _, pos, value = self.take()
        if kind != "rat" or value[1] != 1:
            raise ParseError("exponent must be a nonnegative integer", pos)
        n = value[0]
        if base is None:
            return n
        coeffs = base.terms.values() if isinstance(base, MPoly) else [_reduced(base[0], 0, 0, 0, base[1])]
        growth = max(map(_growth, coeffs), default=0)
        if growth and n > _MAX_POWER_BITS / growth:
            raise ParseError(f"power of more than the bound of {_MAX_POWER_BITS} bits", pos)
        if isinstance(base, MPoly) and len(base.terms) > 1:
            degree = n * _degree(base)
            if degree > _MAX_POWER_DEGREE:
                raise ParseError(f"power of degree {degree}, above the bound of {_MAX_POWER_DEGREE}", pos)
            t = len(base.terms)
            _bound_terms("power", comb(n + t - 1, t - 1), degree, base.terms, pos)
        return n


def _bound_terms(what: str, count: int, degree: int, exponents, pos: int) -> None:
    """A ParseError at pos when the power or product may have more than
    _MAX_TERMS terms: at most count, and at most the number of monomials up
    to degree in the variables that the exponent vectors use."""
    used = sum(map(any, zip(*exponents)))
    terms = min(count, comb(degree + used, used))
    if terms > _MAX_TERMS:
        raise ParseError(f"{what} of up to {terms} terms, above the bound of {_MAX_TERMS}", pos)


def _reference_mpoly(text: str, nvars: int) -> MPoly:
    if nvars < 1:
        raise ParseError("need at least one variable", 0)
    parser = _Parser(_tokenize(text), nvars)
    result = parser.parse_expression()
    kind, text, pos, _ = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {text!r}", pos)
    return result


def _reference_quat(text: str) -> Quat:
    p = _reference_mpoly(text, 1)
    constant = Quat.scalar(0)
    for exps, coeff in p.terms.items():
        if any(exps):
            pos = next(pos for kind, _, pos, _ in _tokenize(text) if kind == "var")
            raise ParseError("expected a constant quaternion, found a variable", pos)
        constant = constant + coeff
    return constant


def _pairs(nvars):
    """(parser, reference) pairs: parse_quat, parse_upoly (parse_mpoly in
    one variable turned dense), and parse_mpoly in each of nvars."""
    return [
        (parse_quat, _reference_quat),
        (parse_upoly, lambda t: _to_upoly(_reference_mpoly(t, 1))),
        *(((lambda t, n=n: parse_mpoly(t, n)), (lambda t, n=n: _reference_mpoly(t, n))) for n in nvars),
    ]


def _outcome(parse, text):
    """What parse makes of text: the value's type, repr and term order, or
    the error's type, message and position."""
    try:
        value = parse(text)
    except InvalidInput as error:
        return type(error).__name__, str(error), getattr(error, "position", None)
    return type(value).__name__, repr(value), list(value.terms) if isinstance(value, MPoly) else None


def _assert_agrees(texts, nvars=(1, 2, 3)):
    pairs = _pairs(nvars)
    for text in texts:
        for parse, reference in pairs:
            assert _outcome(parse, text) == _outcome(reference, text), text


def _option_texts(argv):
    """Every option value of argv, whole and split at ',' and ';'."""
    values = [arg.split("=", 1)[1] for arg in argv if arg.startswith("--") and "=" in arg]
    values += [value for flag, value in zip(argv, argv[1:]) if flag.startswith("--") and "=" not in flag]
    texts = set(values)
    for value in values:
        texts.update(value.split(","), value.split(";"))
    return texts


@cache
def _request_texts():
    """The option texts of the seeded fuzz requests and of the benchmark's
    `queries` requests, at seeds 1, 2 and 3."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.append(root)
    from perfbench import gen

    texts = set()
    for seed in (1, 2, 3):
        for argv in _fuzz_argvs(seed, 400):
            texts |= _option_texts(argv)
        for block in gen.generate("queries", seed):
            for instance in block:
                texts |= _option_texts(instance["data"]["argv"])
    return sorted(texts)


# The grammar's own characters, and one it refuses.
_MUTATION_ALPHABET = "0123456789/ijkx+-*^() $"


def _mutations(text):
    """Every one-character deletion, insertion and substitution of text."""
    out = set()
    for at in range(len(text) + 1):
        out.update(text[:at] + c + text[at:] for c in _MUTATION_ALPHABET)
        if at < len(text):
            out.add(text[:at] + text[at + 1 :])
            out.update(text[:at] + c + text[at + 1 :] for c in _MUTATION_ALPHABET)
    return sorted(out)


class TestReferenceParser:
    def test_request_texts_agree(self):
        texts = _request_texts()
        assert len(texts) > 10_000
        _assert_agrees(texts, nvars=(2,))

    def test_error_table_agrees(self):
        _assert_agrees(sorted({text for _, text, _, _ in _ERROR_CASES}), nvars=(0, 1, 2, 3, 4))

    def test_one_character_mutations_agree(self):
        # Mutants of short request texts reach every error and most of the
        # grammar's corners: a broken rational, exponent, index or nesting.
        texts = [text for text in _request_texts() if len(text) <= 40]
        for text in Random(33).sample(texts, 12):
            _assert_agrees(_mutations(text))

    @pytest.mark.parametrize(
        "text",
        [
            "x^4/2", "x^0/5", "x^2/3", "x^3/0", "x ^ 2 ^ 3", "(x)^2^3", "2/4^3", "(2/2)^1000000000",
            "i^0", "i^2", "i^3", "i^4k", "(i)^7j", "j(1/2 - i)^3(x - k)^2k(1 + x)i", "(x - x + 1)^5",
            "x01", "x10^2", "1 / 2 / 3", "((x))", "(0)^0", "0^0", "(x1 + x2)(x2 - i)(x1 + j)", "-(-(-x))",
            "\u00a0x\u2003+ 1\u3000", "1\n+\tx", "(" * 100 + "x" + ")" * 100 + "^2", "x" * 50 + "1",
        ],
    )
    def test_corners_agree(self, text):
        _assert_agrees([text])

    def test_a_lexical_error_comes_before_a_syntax_error(self):
        # The first lexical error in the text wins, wherever it stands.
        with pytest.raises(ParseError) as info:
            parse_upoly(")) x^i (1/0")
        assert str(info.value) == "zero denominator (at position 10)"
        _assert_agrees([")) x^i (1/0", "1/0 + ))", "x00 $", "$ x00", "x^1/ + 1/0"])

    def test_long_texts_are_scanned_in_linear_time(self):
        # Each space is read once, also in trailing whitespace, which the
        # reference scans once per space, and when the scan fails at the end
        # of the text.
        start = time.perf_counter()
        assert parse_quat("1" + " " * 100_000) == ONE
        assert time.perf_counter() - start < 2
        texts = [" " * 100_000 + "$", "1 " * 50_000 + "$", "x1" * 30_000 + "x0", "i+" * 30_000 + "1/" + "0" * 4_000]
        for text in texts + ["x 1/2 " * 20_000 + "/", "1" + " " * 100_000 + "/"]:
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_quat(text)
            assert time.perf_counter() - start < 2, text[:10]
