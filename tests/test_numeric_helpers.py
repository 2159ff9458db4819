"""Square decompositions, the central content and the central-polynomial
factorizer."""

import importlib
import sys
from fractions import Fraction as F
from itertools import zip_longest
from math import cos, gcd, isfinite, isqrt, lcm, pi, sin
from random import Random

import pytest
from sympy import QQ, ZZ, Poly, Symbol

from quatca import intmath, ratfactor
from quatca.errors import InvalidInput
from quatca.intmath import rational_sqrt, three_squares
from quatca.parsing import parse_upoly
from quatca.ratfactor import factor_central
from quatca.scalars import Centralizer, I, ONE, Quat, ZERO, _integer_rows
from quatca.upoly import Isolated, RootSearchStatus, Sphere, UPoly, right_roots, sphere_member_in
from test_cli import _SEED_5_ROOTS
from test_upoly import _one_form, _sympy_factor


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


@pytest.fixture
def sympy_three_squares(monkeypatch):
    """sympy's `sum_of_three_squares` as the oracle, and the list of the n
    that `three_squares` hands it, recorded by a spy put in its place."""
    module = importlib.import_module("sympy.solvers.diophantine.diophantine")
    oracle, asked = module.sum_of_three_squares, []

    def spy(n):
        asked.append(n)
        return oracle(n)

    monkeypatch.setattr(module, "sum_of_three_squares", spy)
    return oracle, asked


class TestThreeSquaresInIntegers:
    def test_sympys_triple_without_sympy(self, sympy_three_squares):
        oracle, asked = sympy_three_squares
        rng = Random(18)
        ns = [*range(20000), *(rng.randrange(10**19, 10**20) for _ in range(300))]
        assert [three_squares(n) for n in ns] == [oracle(n) for n in ns]
        assert asked == []

    def test_forty_digit_n_agree_with_sympy(self, sympy_three_squares):
        oracle, _ = sympy_three_squares
        rng = Random(40)
        for n in (rng.randrange(10**39, 10**40) for _ in range(300)):
            assert three_squares(n) == oracle(n)

    def test_legendre_family_is_none_without_sympy(self, sympy_three_squares):
        _, asked = sympy_three_squares
        for a in range(6):
            for b in [*range(0, 400, 7), 10**30 + 3]:
                assert three_squares(4**a * (8 * b + 7)) is None
        assert asked == []

    def test_above_the_miller_rabin_bound_sympy_decides(self, sympy_three_squares):
        oracle, asked = sympy_three_squares
        n = next(m for m in range(intmath._MR_BOUND, intmath._MR_BOUND + 8) if m % 8 in (1, 2, 3, 5, 6))
        assert three_squares(n) == oracle(n)
        assert asked == [n]
        assert three_squares(4 * n) == oracle(4 * n)
        assert asked == [n, 4 * n]

    def test_a_composite_called_prime_yields_no_unverified_triple(self, monkeypatch, sympy_three_squares):
        # Find an n whose descent tests a composite that is no sum of two
        # squares before it meets a prime, then let the primality test
        # call that composite prime: its split cannot square back to n.
        oracle, asked = sympy_three_squares
        real = intmath._is_prime

        def two_squares(m):
            return any(isqrt(m - a * a) ** 2 == m - a * a for a in range(isqrt(m) + 1))

        for n in range(10**6, 10**6 + 100):
            tested = []
            monkeypatch.setattr(intmath, "_is_prime", lambda m: tested.append(m) or real(m))
            three_squares(n)
            bad = next((m for m in tested if not real(m) and not two_squares(m)), None)
            if bad is not None:
                break
        assert bad is not None
        monkeypatch.setattr(intmath, "_is_prime", lambda m: m == bad or real(m))
        assert three_squares(n) == oracle(n)
        assert asked == [n]


def _product(*factors):
    """Coefficients low to high of a product of polynomials given low to high."""
    out = [F(1)]
    for factor in factors:
        prod = [F(0)] * (len(out) + len(factor) - 1)
        for a_idx, a in enumerate(out):
            for b_idx, b in enumerate(factor):
                prod[a_idx + b_idx] += a * b
        out = prod
    return out


# Irreducible over the rationals, of degree > 2.
_IRREDUCIBLE = ([-2, 0, 0, 1], [1, 1, 0, 1], [5, 0, 0, 1, 1], [1, 1, 0, 0, 1], [3, -1, 0, 0, 0, 1])


def _agrees_with_sympy(coeffs):
    fac = factor_central(_one_form(coeffs))
    linear, quadratics, leftover = _sympy_factor(coeffs)
    assert (fac.linear, fac.quadratics, fac.leftover_degree) == (linear, quadratics, leftover)
    assert fac.complete == (leftover == 0)


def _sympy_content(p):
    """sympy's gcd of the four coordinate polynomials of p, made monic,
    coefficients low to high."""
    x = Symbol("x")
    g = Poly(0, x, domain=QQ)
    for coords in zip(*(c.coords() for c in p.coeffs)):
        g = g.gcd(Poly(coords[::-1], x, domain=QQ))
    return [F(int(c.p), int(c.q)) for c in g.monic().all_coeffs()[::-1]]


def _content(p):
    """`ratfactor._central_content` of p: its one form, and made monic."""
    content = ratfactor._central_content(_integer_rows(p.coeffs)[0])
    return content, [F(v, content[0]) for v in reversed(content)]


class TestCentralContent:
    def test_equals_the_sympy_gcd_on_planted_factors(self):
        # p = q*c for a central c of rational roots, irreducible quadratics,
        # repeated factors and a cubic, and a q with non-integer
        # coefficients, sometimes a zero coordinate polynomial and sometimes
        # a zero coordinate in its leading coefficient.
        rng = Random(80)
        shapes = {"zero-coordinate": 0, "top-zero": 0}
        for _ in range(120):
            factors = []
            for _ in range(rng.randint(0, 4)):
                pick = rng.random()
                if pick < 0.4:
                    factor = [F(rng.randint(-9, 9), rng.randint(1, 6)), 1]
                elif pick < 0.8:
                    t = F(rng.randint(-6, 6), rng.randint(1, 3))
                    factor = [t * t / 4 + F(rng.randint(1, 9), rng.randint(1, 4)), -t, 1]
                else:
                    factor = rng.choice(_IRREDUCIBLE[:2])
                factors += [factor] * rng.choice([1, 1, 2, 3])
            axes = rng.sample(range(4), rng.randint(1, 4))
            shapes["zero-coordinate"] += len(axes) < 4
            coeffs = []
            for _ in range(rng.randint(1, 3)):
                coords = [F(rng.randint(-9, 9), rng.randint(1, 5)) if a in axes else 0 for a in range(4)]
                coeffs.append(Quat(*coords))
            lead = [F(rng.randint(1, 9), rng.randint(1, 5)) if a in axes else 0 for a in range(4)]
            if len(axes) > 1 and rng.random() < 0.5:
                lead[rng.choice(axes)] = 0
                shapes["top-zero"] += 1
            p = UPoly(coeffs + [Quat(*lead)]) * UPoly.from_central(_product(*factors))
            content, monic = _content(p)
            assert monic == _sympy_content(p)
            assert content[0] > 0 and gcd(*content) == 1
        assert min(shapes.values()) >= 20

    def test_a_leading_zero_coordinate_is_dropped(self):
        # The i-part of (x - i)^2 = x^2 - 2ix - 1 is -2x, with top
        # coefficient 0: a remainder sequence that kept the zero would take
        # -2x for a quadratic and return x instead of 1.
        square = UPoly.linear(I) * UPoly.linear(I)
        assert _content(square) == ([1], [F(1)])
        planted = square * UPoly.from_central([F(-1, 2), 1])
        assert _content(planted) == ([2, -1], [F(-1, 2), F(1)])
        assert _content(planted)[1] == _sympy_content(planted)

    def test_zero_coordinates_and_constants(self):
        assert _content(UPoly([ZERO, Quat(0, F(1, 3), F(2, 3))])) == ([1, 0], [F(0), F(1)])
        assert _content(UPoly([Quat(0, 0, 1), I])) == ([1], [F(1)])


def _reference_pseudo_remainder(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b as first defined: every step
    rebuilds the whole dividend."""
    for _ in range(len(a) - len(b) + 1):
        c = a[0]
        a = [b[0] * v - c * w for v, w in zip_longest(a[1:], b[1:], fillvalue=0)]
    return a


class TestPseudoRemainder:
    def test_equals_the_reference_on_seeded_pairs(self):
        # Dividends shorter than, as long as and longer than the divisor,
        # leading zeros, constant divisors and zero coefficients in either,
        # and one long dividend by a quadratic.
        rng = Random(61)
        pairs = [([rng.randint(-99, 99) for _ in range(501)], [3, 1, -2])]
        for _ in range(3000):
            b = [rng.choice((-3, -2, -1, 1, 2, 5))] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            pairs.append(([rng.randint(-9, 9) * (rng.random() < 0.8) for _ in range(rng.randint(0, 14))], b))
        for a, b in pairs:
            assert ratfactor._pseudo_remainder(a, b) == _reference_pseudo_remainder(a, b)


def _reference_class_remainder(rows, t, n):
    """`_class_remainder` as first written: one `_pseudo_remainder` per row
    by the primitive quadratic of (t, n)."""
    den = lcm(t.denominator, n.denominator)
    f = [den, -t.numerator * (den // t.denominator), n.numerator * (den // n.denominator)]
    rems = [([0, 0] + ratfactor._pseudo_remainder(row, f))[-2:] for row in rows]
    return tuple(r[0] for r in rems), tuple(r[1] for r in rems)


class TestClassRemainder:
    def test_the_recurrence_equals_the_pseudo_remainder(self):
        # Rows of every length from 0 to 12, zero and long coefficients, and
        # classes whose t and n have denominators, together and apart.
        rng = Random(62)
        for _ in range(2000):
            length = rng.randint(0, 12)
            height = rng.choice((1, 9, 10**30))
            rows = [[rng.randint(-height, height) * (rng.random() < 0.8) for _ in range(length)] for _ in range(4)]
            t = F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))
            n = F(rng.randint(1, 40), rng.choice((1, 1, 4, 5, 9)))
            got = ratfactor._class_remainder(rows, t, n)
            assert got == _reference_class_remainder(rows, t, n), (rows, t, n)


def _reference_remainder_gcd(a, b):
    """The gcd of two rows in the one form by the primitive remainder
    sequence, with no size bound: the content's algorithm before GCDHEU."""
    while b:
        a, b = b, ratfactor._primitive_part(ratfactor._pseudo_remainder(a, b))
    return a


def _reference_central_content(rows):
    """`_central_content` as the remainder sequence folded over the rows."""
    g = []
    for f in map(ratfactor._primitive_part, rows):
        g = _reference_remainder_gcd(g, f) if g and f else g or f
        if len(g) == 1:
            break
    return g


def _sympy_gcd(a, b):
    g = Poly(a, Symbol("x"), domain=ZZ).gcd(Poly(b, Symbol("x"), domain=ZZ))
    return ratfactor._primitive_part([int(c) for c in g.all_coeffs()])


def _gcd_pairs(rng):
    """Seeded pairs of rows in the one form with a planted common factor of
    degree 0 to 6 (degree 0: coprime as drawn), some with coefficients of a
    few hundred bits, and pairs with a constant row."""
    def poly(degree, bits):
        top = 2**bits
        return [rng.randint(1, top)] + [rng.randint(-top, top) for _ in range(degree)]

    pairs = []
    for k in range(210):
        bits = rng.choice((3, 3, 8, 40, 300))
        common = poly(k % 7, min(bits, 8))
        a, b = (_times(common, poly(rng.randint(0, 8), bits)) for _ in range(2))
        pairs.append((ratfactor._primitive_part(a), ratfactor._primitive_part(b)))
    pairs += [([1], ratfactor._primitive_part(poly(5, 8))), (ratfactor._primitive_part(poly(3, 3)), [1])]
    return pairs


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


class TestHeuristicGcd:
    """`ratfactor._gcd` (GCDHEU) against sympy's gcd and the remainder
    sequence it replaced."""

    def test_equals_sympy_and_the_remainder_sequence(self, monkeypatch):
        def no_fallback(a, b):
            raise AssertionError(f"the remainder sequence was reached on {a}, {b}")

        pairs = _gcd_pairs(Random(90))
        expected = [_reference_remainder_gcd(a, b) for a, b in pairs]
        monkeypatch.setattr(ratfactor, "_remainder_gcd", no_fallback)
        degrees = set()
        for (a, b), want in zip(pairs, expected):
            got = ratfactor._gcd(a, b)
            assert got == want == _sympy_gcd(a, b), (a, b)
            degrees.add(len(got) - 1)
        assert degrees >= set(range(7))

    def test_a_candidate_must_divide_both_rows(self):
        # xi = 4: a(4) = 5 divides b(4) = 10, whose digits read x + 1, which
        # divides a but not b; xi = 10 then gives gcd(11, 16) = 1.
        assert ratfactor._gcd([1, 1], [1, 6]) == ratfactor._gcd([1, 6], [1, 1]) == [1]

    def test_a_longer_divisor_never_divides(self):
        # Its trailing zeros must not read as a zero remainder.
        assert ratfactor._exact_quotient([1, 0, 0], [1, 0, 0, 0, 0]) is None

    def test_the_forced_fallback_is_the_remainder_sequence(self, monkeypatch):
        monkeypatch.setattr(ratfactor, "_HEURISTIC_TRIES", 0)
        for a, b in _gcd_pairs(Random(91))[::7]:
            assert ratfactor._gcd(a, b) == _reference_remainder_gcd(a, b) == _sympy_gcd(a, b)

    def test_the_fallback_bound_just_below_and_just_above_its_edge(self, monkeypatch):
        # A row of length 100 against x + 1: 100 * 2 coefficient steps on
        # numbers of 1 + 102 * bits // 64 words, so 313 bits estimate
        # 200 * 499^2 = 49,800,200 word products and 314 bits 50,200,200.
        assert ratfactor._MAX_REMAINDER_WORK == 50_000_000
        monkeypatch.setattr(ratfactor, "_HEURISTIC_TRIES", 0)
        below = [2**312] + [1] * 99
        assert ratfactor._gcd(below, [1, 1]) == _sympy_gcd(below, [1, 1])
        with pytest.raises(InvalidInput) as info:
            ratfactor._gcd([2**313] + [1] * 99, [1, 1])
        assert str(info.value) == (
            "gcd by remainders of degrees 99 and 1 with 314-bit coefficients: "
            "about 50200200 word products, above the bound of 50000000"
        )

    def test_the_long_fuzz_request_has_content_x(self):
        # Rows of degree 180 with coefficients of up to 532 bits, on which
        # the remainder sequence ran for more than 120 s.
        rows = _integer_rows(parse_upoly(_SEED_5_ROOTS).coeffs)[0]
        assert (len(rows[0]), max(abs(c) for row in rows for c in row).bit_length()) == (181, 532)
        assert ratfactor._central_content(rows) == [1, 0]

    def test_central_content_of_zero_constant_and_leading_zero_rows(self):
        rng = Random(92)
        shapes = {"zero": 0, "constant": 0, "leading-zero": 0}
        for _ in range(150):
            common = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
            rows = []
            for _ in range(4):
                roll = rng.random()
                if roll < 0.2:
                    row, shapes["zero"] = [], shapes["zero"] + 1
                elif roll < 0.3:
                    row, shapes["constant"] = [rng.randint(-9, 9) or 1], shapes["constant"] + 1
                else:
                    row = _times(common, [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
                rows.append(row)
            width = max(map(len, rows)) + rng.randint(0, 2)
            shapes["leading-zero"] += any(len(row) < width for row in rows if row)
            rows = [[0] * (width - len(row)) + row for row in rows]
            if not any(map(any, rows)):
                continue
            want = _reference_central_content(rows)
            assert ratfactor._central_content(rows) == want, rows
            monic = Poly(0, Symbol("x"), domain=QQ)
            for row in rows:
                monic = monic.gcd(Poly(row, Symbol("x"), domain=QQ))
            assert [F(c, want[0]) for c in want] == monic.monic().all_coeffs()
        assert min(shapes.values()) >= 20


def _reference_factor_low_degree(f):
    """The closed form as first written: t, n and an exact rational square
    root of t^2 - 4n."""
    if len(f) == 2:
        return ((F(-f[1], f[0]), 1),), ()
    t, n = F(-f[1], f[0]), F(f[2], f[0])
    s = rational_sqrt(t * t - 4 * n)
    if s is None:
        return (), ((t, n, 1),)
    if not s:
        return ((t / 2, 2),), ()
    return (((t - s) / 2, 1), ((t + s) / 2, 1)), ()


class TestLowDegreeClosedForm:
    def test_the_integer_discriminant_agrees_with_the_rational_one(self):
        rng = Random(93)
        cases = [[1, 0, -4], [4, -4, 1], [2, -3], [9, 0, 1], [6, -5, 1], [1, 0, -2]]
        for _ in range(400):
            r, s = F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9))
            cases.append(_one_form([r * s, -(r + s), 1]))
            cases.append([rng.randint(1, 40), rng.randint(-99, 99), rng.randint(-99, 99)])
            cases.append([rng.randint(1, 40), rng.randint(-99, 99)])
        for f in cases:
            fac = ratfactor._factor_low_degree(f)
            assert (fac.linear, fac.quadratics) == _reference_factor_low_degree(f), f


def _reference_approximate_roots(f):
    """`_approximate_roots` as first written: every sweep visits every
    root, and a settled one is tested again."""
    try:
        a = [c / f[0] for c in f]
        n = len(a) - 1
        radius = max(abs(a[k]) ** (1 / k) for k in range(1, n + 1))
        angles = [2 * pi * k / n + 0.4 for k in range(n)]
        z = [radius * complex(cos(t), sin(t)) for t in angles]
        for _ in range(ratfactor._MAX_SWEEPS):
            settled = True
            for i, zi in enumerate(z):
                value = slope = 0j
                bound, size = 0.0, abs(zi)
                for c in a:
                    slope = slope * zi + value
                    value = value * zi + c
                    bound = bound * size + abs(c)
                if not isfinite(bound):
                    return None
                if abs(value) <= ratfactor._SETTLED_ULPS * sys.float_info.epsilon * bound:
                    continue
                settled = False
                ratio = value / slope
                repulsion = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                z[i] = zi - ratio / (1 - ratio * repulsion)
                if not isfinite(abs(z[i])):
                    return None
            if settled:
                return z
    except (OverflowError, ZeroDivisionError):
        pass
    return None


class TestActiveSetAberth:
    def test_sweeping_only_unsettled_roots_changes_no_bit(self, monkeypatch):
        # Planted products, random dense polynomials, clusters, and
        # coefficients past a float; then the same under small sweep caps.
        rng = Random(94)
        polys = [[1, 0, 0, 0, 1], [1, -2, 1, -2, 1], [10**400, 1, 1, 1], [1, 0, 0, 10**300, 1]]
        for _ in range(60):
            factors = [[rng.randint(1, 6), rng.randint(-9, 9)] for _ in range(rng.randint(1, 4))]
            factors += [[1, rng.randint(-4, 4), rng.randint(5, 20)] for _ in range(rng.randint(0, 3))]
            f = [1]
            for g in factors:
                f = _times(f, g)
            polys.append(f if f[-1] else f[:-1] + [1])
            polys.append([rng.randint(1, 9)] + [rng.randint(-99, 99) for _ in range(rng.randint(2, 30))] + [rng.randint(1, 9)])
        outcomes = set()
        for sweeps in (ratfactor._MAX_SWEEPS, 1, 3, 6):
            monkeypatch.setattr(ratfactor, "_MAX_SWEEPS", sweeps)
            for f in polys:
                got = ratfactor._approximate_roots(f)
                assert repr(got) == repr(_reference_approximate_roots(f)), (sweeps, f)
                outcomes.add(got is None)
        assert outcomes == {True, False}


class TestFactorCentral:
    def test_full_split(self):
        poly = _product([F(-1, 3), 1], [1, 1, 1], [0, 1])  # x(x - 1/3)(x^2 + x + 1)
        fac = factor_central(_one_form(poly))
        assert fac.complete
        assert dict(fac.linear) == {F(0): 1, F(1, 3): 1}
        assert fac.quadratics == ((F(-1), F(1), 1),)

    def test_multiplicity(self):
        fac = factor_central([1, 0, 2, 0, 1])  # (x^2+1)^2
        assert fac.quadratics == ((F(0), F(1), 2),)

    def test_irreducible_quartic_is_left_over(self):
        fac = factor_central([1, 0, 0, 1, 1])
        assert fac.leftover_degree == 4
        assert not fac.complete

    def test_random_products_agree_with_sympy(self):
        # Linear, quadratic (split, sphere or real irrational) and
        # irreducible cubic to quintic factors with multiplicities up to 4,
        # under a leading coefficient of either sign and sometimes a power
        # of x.
        rng = Random(77)
        for _ in range(100):
            factors = []
            while sum(len(f) - 1 for f in factors) < rng.randint(3, 14):
                pick = rng.random()
                if pick < 0.4:
                    factor = [F(rng.randint(-12, 12), rng.randint(1, 12)), 1]
                elif pick < 0.8:
                    c0, c1 = F(rng.randint(-20, 20), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 4))
                    factor = [c0, c1, 1]
                else:
                    factor = rng.choice(_IRREDUCIBLE)
                factors += [factor] * rng.choice([1, 1, 1, 2, 3, 4])
            if rng.random() < 0.2:
                factors += [[0, 1]] * rng.randint(1, 3)
            lead = F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 7))
            _agrees_with_sympy([lead * c for c in _product(*factors)])

    @pytest.mark.parametrize(
        "factors",
        [
            [[-3, 11]] * 4,  # the float cluster resolves only in pairs: (11x - 3)^2 must split
            [[F(-1, 3), 1]] * 3 + [[0, 1]] * 2 + [[2, 0, 1]],
            [[-2, 0, 1], [1, -3, 1], [F(-1, 2), 1]],  # real irrational roots
            [[-1, 1000], [-1, 1001], [1, 0, 1]],  # nearby rational roots
            [[-1, 10**20 + 1], [-1, 10**20 + 3], [1, 1, 1]],  # denominators beyond a float
            [[-(2**60 + 1), 2**60], [-1, 1], [1, 1]],
            [[-(10**400), 1], [1, 0, 1], [F(-1, 3), 1]],  # root ratios overflow a float
            [[-1, 10**400], [2, 0, 1], [-1, 1]],  # a leading coefficient beyond a float
            [[-(10**300), 1], [-1, 1], [1, 0, 1]],  # evaluation overflows
            [[10**400 * c for c in _IRREDUCIBLE[0]], [-5, 1]],  # content around 10^400
            [[k * k + 1, -k, 1] for k in range(1, 7)] + [[-1, k] for k in range(1, 7)] + list(_IRREDUCIBLE[:2]),
        ],
        ids=[
            "four-fold-root", "zero-constant-term", "real-irrational", "nearby-roots",
            "huge-denominators", "root-near-one", "huge-root", "huge-lead", "evaluation-overflow",
            "huge-content", "degree-24",
        ],
    )
    def test_adversarial_products_agree_with_sympy(self, factors):
        _agrees_with_sympy(_product(*factors))

    def test_planted_products_never_reach_sympy(self, monkeypatch):
        # Distinct small-height linear and sphere factors, some squared: the
        # floats resolve every root, so exact division explains everything.
        expected = []
        rng = Random(78)
        for _ in range(40):
            factors = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.5:
                    factor = [F(rng.randint(-6, 6), rng.randint(1, 6)), 1]
                else:
                    t = rng.randint(-4, 4)
                    factor = [rng.randint(t * t // 4 + 1, 12), -t, 1]
                factors += [factor] * rng.randint(1, 2)
            coeffs = _product(*factors)
            expected.append((coeffs, _sympy_factor(coeffs)))

        def no_sympy(f):
            raise AssertionError(f"sympy reached on {f}")

        monkeypatch.setattr(ratfactor, "_sympy_factors", no_sympy)
        for coeffs, (linear, quadratics, leftover) in expected:
            fac = factor_central(_one_form(coeffs))
            assert (fac.linear, fac.quadratics, fac.leftover_degree) == (linear, quadratics, leftover)

    def test_iteration_cap_falls_through_to_sympy(self, monkeypatch):
        monkeypatch.setattr(ratfactor, "_MAX_SWEEPS", 0)
        _agrees_with_sympy(_product([F(-1, 3), 1], [F(-1, 3), 1], [1, 1, 1], _IRREDUCIBLE[0]))


def _planted_norm(rng):
    """N(q) in the one form for q = p/c, c the central content of a seeded
    product p of two to four linear factors, with integer roots or roots
    with a coordinate in thirds, and sometimes one more factor whose root
    repeats a class: the same root or a conjugate of it."""
    roots = []
    for _ in range(rng.randint(2, 4)):
        dens = [1, 1, 1, rng.choice((1, 3))]
        rng.shuffle(dens)
        roots.append(Quat(*(F(rng.randint(-4, 4), d) for d in dens)))
    if rng.random() < 0.5:
        u = rng.choice((ONE, Quat(*(rng.randint(-2, 2) for _ in range(4))) or I))
        roots.insert(rng.randint(0, len(roots)), u * rng.choice(roots) * u.inverse())
    p = UPoly([ONE])
    for root in roots:
        p = p * UPoly.linear(root)
    return ratfactor._content_and_norm(_integer_rows(p.coeffs)[0])[1]


class TestPairedFloatStage:
    """`factor_central(f, no_real_roots=True)` iterates one root of each
    conjugate pair; its answers are the general path's and sympy's."""

    def test_planted_norms_agree_and_never_reach_sympy(self, sympy_factors):
        rng = Random(95)
        norms = [f for f in (_planted_norm(rng) for _ in range(150)) if len(f) > 3]
        assert len(norms) > 100
        for f in norms:
            paired = factor_central(f, no_real_roots=True)
            assert sympy_factors == [], f
            general = factor_central(f)
            assert paired == general
            linear, quadratics, leftover = _sympy_factor([F(c) for c in reversed(f)])
            assert (paired.linear, paired.quadratics, paired.leftover_degree) == (linear, quadratics, leftover)

    def test_one_candidate_per_approximation(self):
        # (x^2 + 1)(x^2 + 2x + 5): two approximations, two quadratics.
        f = [1, 2, 6, 2, 5]
        roots = ratfactor._approximate_roots(f, paired=True)
        assert len(roots) == 2
        assert sorted(ratfactor._candidates(f, paired=True)) == [[1, 0, 1], [1, 2, 5]]

    def test_a_content_with_real_roots_takes_the_general_path(self, monkeypatch):
        # p = (x^2 - 2)(x - i) and (x - 1)(x - 2)(x + 3)(x - i): the content
        # has real roots and N(q) = x^2 + 1.  Only N(q) is stated to have
        # none.
        calls, factor = [], ratfactor.factor_central

        def spy(f, **flags):
            calls.append((f, flags))
            return factor(f, **flags)

        monkeypatch.setattr(ratfactor, "factor_central", spy)
        for content, rational in (([-2, 0, 1], []), ([6, -7, 0, 1], [-3, 1, 2])):
            calls.clear()
            p = UPoly.from_central(content) * UPoly.linear(I)
            classes, status = right_roots(p)
            expected = [Isolated(Quat(v)) for v in sorted(rational)] + [Isolated(I)]
            assert classes == expected
            assert (status is RootSearchStatus.COMPLETE) == bool(rational)
            assert calls == [(content[::-1], {}), ([1, 0, 1], {"no_real_roots": True})]


def _random_irreducible(rng, degree):
    """A seeded integer polynomial of the given degree, irreducible over
    the rationals by sympy's test, coefficients low to high."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 5)]
        if coeffs[0] and Poly(coeffs[::-1], Symbol("x")).is_irreducible:
            return [F(c) for c in coeffs]


@pytest.fixture
def sympy_factors(monkeypatch):
    """The cofactors that `factor_central` hands sympy, recorded by a spy."""
    reached, oracle = [], ratfactor._sympy_factors

    def spy(f):
        reached.append(f)
        return oracle(f)

    monkeypatch.setattr(ratfactor, "_sympy_factors", spy)
    return reached


_FAMILIES = {
    "cubic": (3,), "quartic": (4,), "quintic": (5,), "octic": (8,),
    "cubic-cubic": (3, 3), "cubic-quartic": (3, 4), "cubic-squared": (3,),
}


class TestSmallFactorProof:
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_irreducible_products_agree_with_sympy(self, family):
        rng = Random(family)
        for _ in range(30):
            factors = [_random_irreducible(rng, d) for d in _FAMILIES[family]]
            if family == "cubic-squared":
                factors *= 2
            _agrees_with_sympy(_product(*factors))

    def test_small_factors_are_never_proved_absent(self, monkeypatch):
        # With the floats off, the proof sees whole products that do have
        # linear or quadratic factors; every prime must fail on them.
        monkeypatch.setattr(ratfactor, "_MAX_SWEEPS", 0)
        rng = Random(79)
        for _ in range(40):
            small = [F(rng.randint(-9, 9), rng.randint(1, 4)), 1]
            if rng.random() < 0.5:
                small = _product(small, [rng.randint(1, 9), rng.randint(-5, 5), 1])
            _agrees_with_sympy(_product(_random_irreducible(rng, rng.randint(3, 5)), small))

    @pytest.mark.parametrize("coeffs", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]], ids=["x^4+1", "x^4-10x^2+1"])
    def test_klein_four_quartics_reach_sympy(self, sympy_factors, coeffs):
        # Galois group V4: every reduction mod p splits into factors of
        # degree <= 2, so no prime can prove them.
        _agrees_with_sympy([F(c) for c in coeffs])
        assert sympy_factors == [coeffs[::-1]]

    def test_pure_cubics_never_reach_sympy(self, sympy_factors):
        for d in range(-50, 51):
            if round(abs(d) ** (1 / 3)) ** 3 != abs(d):
                fac = factor_central([1, 0, 0, -d])
                assert (fac.linear, fac.quadratics, fac.leftover_degree) == ((), (), 3)
        assert sympy_factors == []

    @pytest.mark.parametrize("e", [17, 25])
    def test_a_cofactor_of_degree_at_most_two_takes_the_closed_form(self, sympy_factors, e):
        # A root beyond float precision rounds to a wrong candidate, so its
        # factor is left as the cofactor.
        _agrees_with_sympy(_product([-(10**e) - 1, 1], [1, 0, 1], [-1, 3]))
        _agrees_with_sympy(_product([10**e + 1, 1, 1], [-2, 1], [-1, 3]))
        assert sympy_factors == []


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
