"""Design guards: quaternion-linear problems reach the rational eliminator
only through `scalars`, so `linalg` has exactly one importer, and the
systems handed to it stay as small and as few as the algorithms need."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm, log2
from pathlib import Path
from random import Random

import pytest

import quatca
from quatca import linalg, scalars
from quatca.cli import Report
from quatca.errors import BOUNDS
from quatca.mpoly import (
    CommutingPoint,
    LeftIdeal,
    MPoly,
    NotFoundWithinBounds,
    RabinowitschCertificate,
    _bounded_cofactors,
    find_certificate,
    point_ideal,
    rabinowitsch_check,
)
from quatca.modules import EigenTuple, ModulePresentation, RootNotFound, find_eigen_tuple
from quatca.parsing import parse_mpoly, parse_quat, parse_upoly
from quatca.randgen import rand_module
from quatca.ratfactor import CentralFactorization
from quatca.scalars import Centralizer, I, J, K, ONE, Quat, ZERO, find_conjugator, left_rank
from quatca.upoly import (
    Isolated,
    RootSearchStatus,
    RootSpaceBasis,
    Sphere,
    UPoly,
    lclm,
    minimal_left_poly,
    minimal_right_poly,
    root_space,
    root_space_dim,
    right_roots,
    wedderburn_lclm,
)

SOURCE = Path(quatca.__file__).parent


def _imports_linalg(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "linalg":
                return True
            if any(alias.name == "linalg" for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "linalg" for alias in node.names):
                return True
    return False


def test_only_scalars_imports_linalg():
    importers = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if _imports_linalg(ast.parse(path.read_text()))
    )
    assert importers == ["scalars.py"]
    # ... and it reaches the eliminator through two entry points only.
    tree = ast.parse((SOURCE / "scalars.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "linalg"
    }
    assert used == {"solve", "rref"}


@pytest.fixture
def rref_systems(monkeypatch):
    """Every (rows, ncols) handed to `linalg.rref` while the test runs."""
    seen = []
    original = linalg.rref

    def capture(rows, ncols):
        seen.append((rows, ncols))
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "rref", capture)
    return seen


def test_lclm_systems_are_no_taller_than_the_remainders(rref_systems):
    # Remainders modulo q have deg q quaternion coefficients: 4 * deg q rows.
    p = UPoly([Quat(1, 2), J, Quat(0, 1, 1, 2)])
    q = UPoly([K, Quat(3, 0, 1), Quat(1, -1)])
    m = lclm(p, q)
    assert m.degree == 4
    assert rref_systems
    assert max(len(rows) for rows, _ in rref_systems) <= 4 * q.degree


def test_eigen_hands_rref_no_system_and_lclm_one(rref_systems):
    # Annihilators come from elimination over H itself, so a 4-dimensional
    # module with 2 actions is split without a rational system; lclm, which
    # knows its degree from gcrd, solves once.
    module, _ = rand_module(Random(30), 2, 4)
    assert isinstance(find_eigen_tuple(module), EigenTuple)
    assert rref_systems == []
    p = UPoly([Quat(1, 2), J, Quat(0, 1, 1, 2)])
    q = UPoly([K, Quat(3, 0, 1), Quat(1, -1)])
    assert lclm(p, q).degree == 4
    assert len(rref_systems) == 1


def test_closed_forms_hand_no_system_to_rref(rref_systems):
    # Root spaces, minimal and Wedderburn polynomials and conjugacy witnesses
    # come from the class quadratic of the point (Gordon-Motzkin), not from
    # a rational system.
    sphere = root_space(UPoly.from_central([1, 0, 1]), I)
    isolated = root_space(UPoly.linear(I) * UPoly.linear(I), I)
    assert (sphere.dim, isolated.dim) == (2, 1)
    assert root_space_dim(UPoly.from_central([1, 0, 1]), Quat(1, 1)) == 0
    assert minimal_left_poly(J, Centralizer.quadratic(I)).degree == 2
    assert minimal_right_poly(J, Centralizer.quadratic(I)).degree == 2
    assert find_conjugator(I, J) is not None
    assert find_conjugator(I, -I) is not None
    assert wedderburn_lclm(J, [I]).degree == 2
    assert wedderburn_lclm(I, [I, Quat(2, 3)]) == UPoly.linear(I)
    assert rref_systems == []


@pytest.fixture
def divisions(monkeypatch):
    """The divisors handed to `UPoly.divmod_right`, recorded by a spy."""
    seen, original = [], UPoly.divmod_right

    def capture(self, d):
        seen.append(d)
        return original(self, d)

    monkeypatch.setattr(UPoly, "divmod_right", capture)
    return seen


def test_root_spaces_divide_no_polynomial(divisions):
    # By Gordon-Motzkin the class of a non-central root holds only roots
    # exactly when its conjugate, a second point of the class, is a root:
    # one evaluation, no division by the class quadratic.
    sphere = UPoly.from_central([1, 0, 1])
    isolated = UPoly.linear(Quat(1, 2)) * UPoly.linear(I)
    central = UPoly.linear(Quat(2)) * sphere
    dims = [root_space(p, a).dim for p, a in [(central, Quat(2)), (isolated, I), (sphere, J)]]
    assert dims == [1, 1, 2]
    assert divisions == []


def test_root_search_divides_no_polynomial(divisions):
    # The content, the cofactor, the companion and every class remainder
    # are computed on the four integer coordinate rows of p, so a planted
    # degree-4 product takes no quaternion polynomial division.
    roots = [Quat(-4, -5, Fraction(1, 3), -4), Quat(4, 5, 5, 2), Quat(3, -4, 3, -6), Quat(-6, 1, -1, 5)]
    p = UPoly.constant(ONE)
    for a in roots:
        p = p * UPoly.linear(a)
    classes, status = right_roots(p)
    assert status == RootSearchStatus.COMPLETE
    assert Isolated(roots[-1]) in classes
    assert divisions == []


def test_left_evaluation_reduces_once(monkeypatch):
    # A Horner sum in integers over one denominator: the value is the only
    # reduced quaternion built, with no quaternion product on the way.
    p = UPoly([Quat(1, Fraction(1, 2)), ZERO, Quat(Fraction(2, 3), 0, 1), Quat(3, 1, Fraction(-1, 7), 1)])
    a = Quat(Fraction(1, 2), 1, Fraction(-1, 3), 2)
    expected = sum((c * a**k for k, c in enumerate(p.coeffs)), ZERO)
    reductions, original = [], scalars._reduced

    def capture(*args):
        reductions.append(args)
        return original(*args)

    monkeypatch.setattr(scalars, "_reduced", capture)
    assert p.eval_left(a) == expected
    assert len(reductions) == 1


def test_solve_and_nullspace_each_hand_one_system_to_rref(rref_systems):
    # perfbench times `linalg.rref` by patching the module attribute, so
    # `solve` and `nullspace` must reach it through that name, once each.
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve(rows, [Fraction(3), Fraction(6)]) is not None
    assert len(rref_systems) == 1
    assert rref_systems[0][1] == 2 and len(rref_systems[0][0]) == 2
    assert len(linalg.nullspace(rows, 2)) == 1
    assert len(rref_systems) == 2
    assert rref_systems[1] == (rows, 2)


def test_one_variable_membership_is_one_gcrd(rref_systems):
    # Left ideals of H[x] are principal, so a check in one variable is
    # decided by the chain of J_m = H[x]*d_m, one gcrd per step and one
    # right division per power, and a point ideal's chain takes at most
    # one step.
    ideal = point_ideal(CommutingPoint([Quat(1, 2)]))
    found = MPoly.constant(Quat(1, 0, 1), 1) * ideal.gens[0]
    assert isinstance(rabinowitsch_check(ideal, found, Quat(1, 1, 0, 2), 2, 2), RabinowitschCertificate)
    ideal = point_ideal(CommutingPoint([Quat(1, 1)]))
    outside = MPoly.constant(Quat(1, 1), 1) + MPoly.constant(I, 1) * MPoly.variable(0, 1)
    assert rabinowitsch_check(ideal, outside, Quat(2, 1), 2, 2) == NotFoundWithinBounds(2, 2)
    g = MPoly.variable(0, 1) - MPoly.constant(I, 1)
    flagship = LeftIdeal((g * g,))
    assert find_certificate(flagship, g, J, 5, 2)[0] == 1
    assert rref_systems == []
    # At degree 0 the chain's cofactors do not fit, so the bounded system runs.
    assert rabinowitsch_check(flagship, g, J, 1, 0) == NotFoundWithinBounds(1, 0)
    assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(16, 8)]


def test_several_variables_hand_rref_only_the_system_that_holds_the_member(rref_systems):
    # A left Groebner basis decides membership first.  Here ap itself lies
    # in the generators' ideal I with a constant cofactor, so rref gets one
    # system over the generators alone, at degree 0, whatever the power and
    # the degree bound; the system over every g_j*(ap)^k, which a direct
    # call builds, also stops at degree 0.
    gens = (
        MPoly.variable(0, 2) - MPoly.constant(I, 2),
        MPoly.variable(1, 2) - MPoly.constant(Quat(1, 1), 2),
    )
    ideal = LeftIdeal(gens)
    for N, degbound in ((2, 1), (5, 1), (2, 3)):
        rref_systems.clear()
        out = rabinowitsch_check(ideal, gens[0], K, N, degbound)
        assert isinstance(out, RabinowitschCertificate)
        assert not any(h for k, row in enumerate(out.cofactors) if k != out.N - 1 for h in row)
        assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(12, 8)]
    powers = [MPoly.constant(ONE, 2), gens[0].scale_left(K)]
    powers.append(powers[1] * powers[1])
    bases = [g * powers[k] for k in range(3) for g in gens]
    for degbound in (1, 3):
        rref_systems.clear()
        _bounded_cofactors(ideal.nvars, bases, powers[2], degbound)
        assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(28, 24)]
    # p = 1 is a non-member at every degree bound, decided without a system.
    rref_systems.clear()
    one = MPoly.constant(ONE, 2)
    assert rabinowitsch_check(ideal, one, ONE, 2, 1) == NotFoundWithinBounds(2, 1)
    assert rref_systems == []


def test_the_least_power_in_the_ideal_is_lifted_whatever_the_power(rref_systems):
    # I = ((x1 - i)^2, x2) holds (ap)^3 for p = x1 - i and a = j, but not
    # (ap)^2.  One system over the generators lifts (ap)^3 at every power
    # N >= 3.  Its cofactors need degree 1, the least that reaches the
    # degree of (ap)^3, so that is the one system built at every degree
    # bound from 1 up (the system over every g_j*(ap)^k at N = 5 and
    # degree 2 was (132, 288)).
    g = MPoly.variable(0, 2) - MPoly.constant(I, 2)
    ideal = LeftIdeal((g * g, MPoly.variable(1, 2)))
    for N in (3, 5):
        for degbound in (1, 2, 5):
            rref_systems.clear()
            out = rabinowitsch_check(ideal, g, J, N, degbound)
            assert isinstance(out, RabinowitschCertificate)
            assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(32, 24)]
            assert [k for k, row in enumerate(out.cofactors) if any(row)] == [N - 3]
            assert max(sum(e) for row in out.cofactors for h in row for e in h.terms) == 1


def test_a_member_held_by_the_generators_builds_no_base_past_them(mpoly_products):
    # The bases g_j*(ap)^k with k >= 1 are formed only when a stage reads
    # them.  ap = k*(g1 + j*g2) lies in I, so the lift of ap answers and no
    # generator is multiplied by anything, at any power; the same holds
    # for every found instance of the `certificates` benchmark.
    ideal = point_ideal(CommutingPoint([I, Quat(0, 2)]))
    gens = ideal.gens
    held = gens[0] + MPoly.constant(J, 2) * gens[1]
    for N in (1, 3):
        mpoly_products.clear()
        assert isinstance(rabinowitsch_check(ideal, held, K, N, 1), RabinowitschCertificate)
        assert [right for left, right in mpoly_products if any(left is g for g in gens)] == []
    # p(i, 2i) = 1 + i, so I does not hold ap, yet a = j makes J_1 the
    # whole ring: the Groebner pass then needs g_j*ap.
    p = MPoly.variable(0, 2) + MPoly.constant(ONE, 2)
    assert isinstance(rabinowitsch_check(ideal, p, J, 1, 1), RabinowitschCertificate)
    assert p.scale_left(J) in [right for left, right in mpoly_products if any(left is g for g in gens)]


def test_a_target_of_too_high_degree_builds_no_system(rref_systems):
    # No column polynomial of the bounded system passes degbound plus the
    # largest base degree, so a target term above it is refused unbuilt.
    gens = (
        MPoly.variable(0, 2) - MPoly.constant(I, 2),
        MPoly.variable(1, 2) - MPoly.constant(Quat(1, 1), 2),
    )
    ideal = LeftIdeal(gens)
    ap = (gens[0] + gens[1]).scale_left(J)
    powers = [MPoly.constant(ONE, 2)]
    for _ in range(3):
        powers.append(powers[-1] * ap)
    assert _bounded_cofactors(2, list(gens), powers[3], 1) is None
    assert rref_systems == []
    # (ap)^2 reaches exactly degbound + 1 and is built: (ap)^2 = (apJ)*(g1 + g2).
    lift = _bounded_cofactors(2, list(gens), powers[2], 1)
    assert lift[0] * gens[0] + lift[1] * gens[1] == powers[2]
    assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(24, 24)]
    rref_systems.clear()
    # The one-variable flagship at degree 0 stays within reach: one system.
    g = MPoly.variable(0, 1) - MPoly.constant(I, 1)
    assert rabinowitsch_check(LeftIdeal((g * g,)), g, J, 1, 0) == NotFoundWithinBounds(1, 0)
    assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(16, 8)]


@pytest.fixture
def mpoly_products(monkeypatch):
    """Every pair of factors multiplied as `MPoly`s while the test runs."""
    seen = []
    original = MPoly.__mul__

    def capture(self, other):
        seen.append((self, other))
        return original(self, other)

    monkeypatch.setattr(MPoly, "__mul__", capture)
    return seen


def test_parenthesis_free_terms_make_no_polynomial_products(mpoly_products):
    # Rationals and variables are central, so a product of atoms and constant
    # parentheses is one coefficient times one monomial; only a non-constant
    # parenthesized factor is multiplied as a polynomial.
    assert parse_quat("-2 + 1/2i - 1/2j - 2k") == Quat(-2, Fraction(1, 2), Fraction(-1, 2), -2)
    printed = "(1/2 - 1/2i - j + k)x^2 + (1 + i + 2j)x + (-1 + j - 3/2k)"
    assert str(parse_upoly(printed)) == printed
    assert parse_mpoly("x^1000000", 1) == MPoly.monomial(ONE, (1000000,))
    assert mpoly_products == []
    assert parse_upoly("(x - i)^2") == UPoly.linear(I) * UPoly.linear(I)
    assert mpoly_products


def test_powers_take_logarithmically_many_products(mpoly_products, monkeypatch):
    # A power of a unit or a constant is a quaternion power, and that of a
    # non-constant polynomial is by repeated squaring, so huge exponents
    # return at once.  Neither squares again after the last bit.
    n = 1000000000
    assert parse_upoly(f"i^{n}") == UPoly([ONE])
    assert parse_mpoly(f"(j)^{n}", 1) == MPoly.constant(ONE, 1)
    assert mpoly_products == []
    assert parse_mpoly(f"(jx)^{n}", 1) == MPoly.monomial(ONE, (n,))
    assert 0 < len(mpoly_products) <= 2 * n.bit_length()
    quat_products, quat_mul = [], Quat.__mul__

    def capture(self, other):
        quat_products.append((self, other))
        return quat_mul(self, other)

    monkeypatch.setattr(Quat, "__mul__", capture)
    for base, m in ((J, n), (Quat(1, 2), 1000), (Quat(0, 3, 4), 7), (K, 1)):
        quat_products.clear()
        base**m
        assert len(quat_products) <= bin(m).count("1") + m.bit_length() - 1


@pytest.fixture
def fractions_and_quat_products(monkeypatch):
    """Every `Fraction` built and every `Quat.__mul__` call while the test
    runs, as ("Fraction", ...) and ("mul", ...) entries of one list."""
    seen = []
    new, mul = Fraction.__new__, Quat.__mul__

    def fraction(cls, *args, **kwargs):
        seen.append(("Fraction", args))
        return new(cls, *args, **kwargs)

    def product(self, other):
        seen.append(("mul", self, other))
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__new__", fraction)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints.__func__

        def from_coprime(cls, *args):
            seen.append(("Fraction", args))
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(from_coprime))
    monkeypatch.setattr(Quat, "__mul__", product)
    return seen


def test_module_files_and_actions_cross_as_integers(fractions_and_quat_products):
    # A module file is read straight into canonical numerators, and its
    # construction (the commutation check on integer numerators), `act` and
    # `poly_action` are integer dot products: no Fraction and no quaternion
    # product, for integer and for rational entries alike.
    from quatca import serde
    from quatca.modules import vec_mat

    for text in (
        '{"m": 2, "mats": [[[{"w": "1", "x": "2", "y": "0", "z": "-3"}, {"w": "0", "x": "0", "y": "0", "z": "0"}],'
        ' [{"w": "4", "x": "0", "y": "1", "z": "0"}, {"w": "0", "x": "-1", "y": "0", "z": "0"}]]]}',
        '{"m": 1, "mats": [[[{"w": "1/2", "x": "-2/4", "y": "0", "z": "3/7"}]], [[{"w": "5", "x": "0", "y": "0", "z": "0"}]]]}',
    ):
        blob = json.loads(text)
        assert fractions_and_quat_products == []
        module = serde.module_from_json(blob)
        v = tuple(Quat(t + 1, -t, 2, 0) for t in range(module.m))
        p = UPoly([Quat(1, 2), ZERO, Quat(0, Fraction(1, 3), 0, -1)])
        fractions_and_quat_products.clear()
        acted = [(module.act(i, v), module.poly_action(i, p, v)) for i in range(module.nvars)]
        assert fractions_and_quat_products == []
        for i, (once, by_p) in enumerate(acted):
            mat = module.mats[i]
            assert once == vec_mat(v, mat)
            twice = vec_mat(once, mat)
            assert by_p == tuple(p.coeffs[0] * a + p.coeffs[2] * c for a, c in zip(v, twice))
        fractions_and_quat_products.clear()
        assert serde.module_to_json(module) == serde.module_to_json(serde.module_from_json(blob))
        assert fractions_and_quat_products == []
    # A larger two-action module over mixed denominators.
    module, _ = rand_module(Random(3), 2, 4)
    mats = [[[q * Fraction(1, 3 + i) for q in row] for row in mat] for i, mat in enumerate(module.mats)]
    fractions_and_quat_products.clear()
    ModulePresentation(4, mats)
    assert fractions_and_quat_products == []


def test_annihilators_eliminate_on_integers(fractions_and_quat_products, monkeypatch):
    # The Krylov rows are reduced on integer numerators: no Fraction, no
    # quaternion product or inverse, and one reduced `Quat` per coefficient
    # of the answer, for integer and for rational actions alike.
    from quatca import modules

    built = []
    reduced = modules._reduced

    def counted(*args):
        built.append(args)
        return reduced(*args)

    def refused(self):
        raise AssertionError("Quat.inverse called")

    monkeypatch.setattr(modules, "_reduced", counted)
    monkeypatch.setattr(Quat, "inverse", refused)
    integer, _ = rand_module(Random(3), 2, 4)
    mats = [[[q * Fraction(1, 3 + i) for q in row] for row in mat] for i, mat in enumerate(integer.mats)]
    rational = ModulePresentation(4, mats)
    for module in (integer, rational):
        for v in (*modules.mat_identity(4), (Quat(1, 2), ZERO, Quat(0, Fraction(1, 3)), Quat(-1))):
            for i in range(2):
                built.clear()
                fractions_and_quat_products.clear()
                p = modules.annihilator_minpoly(module, v, i)
                assert fractions_and_quat_products == []
                assert len(built) == len(p.coeffs)


def test_quat_defines_every_method_the_tracer_wraps():
    # A traced benchmark run rebinds each of these through
    # cls.__dict__[name]; an inherited or renamed method would crash it.
    tracer = ast.parse((SOURCE.parents[1] / "perfbench" / "tracer.py").read_text())
    methods = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]
    )
    assert set(methods[("scalars", "Quat")]) >= {
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "inverse", "norm", "conjugate", "__pow__",
    }
    assert set(methods[("upoly", "UPoly")]) >= {"divmod_right", "divmod_left"}
    assert set(methods[("mpoly", "MPoly")]) >= {"__mul__"}
    classes = {("scalars", "Quat"): Quat, ("upoly", "UPoly"): UPoly, ("mpoly", "MPoly"): MPoly}
    assert set(methods) == set(classes)
    for key, names in methods.items():
        assert all(callable(classes[key].__dict__.get(name)) for name in names)


@pytest.mark.parametrize(
    "value",
    [
        Quat(1, 2, 3, 4),
        Centralizer.quadratic(I),
        UPoly([ONE, I]),
        MPoly.constant(J, 2),
        CommutingPoint([I, Quat(1, 2)]),
        ModulePresentation(1, [[[K]]]),
        Isolated(I),
        Sphere(Fraction(0), Fraction(1)),
        RootSpaceBasis((ONE,), Centralizer.full()),
        CentralFactorization((((1, 0, 1), 1),)),
        LeftIdeal((MPoly.variable(0, 1),)),
        RabinowitschCertificate(0, ()),
        NotFoundWithinBounds(1, 1, every_power=True),
        EigenTuple((ONE,), CommutingPoint([K])),
        RootNotFound(UPoly([ONE, ZERO, ONE]), 0, True),
        Report("ok", {}, "test"),
    ],
    ids=lambda value: type(value).__name__,
)
def test_value_types_share_one_immutability_guard(value):
    # One `__setattr__`, named after the class it refuses for.
    assert type(value).__setattr__ is scalars._immutable
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError) as info:
            setattr(value, name, None)
        assert str(info.value) == f"{type(value).__name__} is immutable"


@pytest.mark.parametrize(
    "cls", [Quat, Centralizer, UPoly, MPoly, CommutingPoint, ModulePresentation], ids=lambda cls: cls.__name__
)
def test_value_types_take_the_guard_and_slot_equality_from_the_record_base(cls):
    # The guard, `copy`/`pickle` and, where no field needs a rule of its
    # own, equality are `_Record`'s: stated once, not per class.
    assert issubclass(cls, scalars._Record)
    assert "__setattr__" not in cls.__dict__ and "__reduce__" not in cls.__dict__
    if cls in (UPoly, MPoly, CommutingPoint, ModulePresentation):
        assert "__eq__" not in cls.__dict__


def _mixed_quat(rng):
    return Quat(*(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(4)))


def test_centralizer_membership_reads_the_numerators(fractions_and_quat_products):
    # `contains` builds no Fraction and takes no product, and agrees with
    # an oracle: everything is in the full ring, the center holds the
    # central quaternions, and Q(u), the centralizer of a pure u, holds what
    # commutes with u.  Members and outsiders have mixed denominators, and
    # one generator has no i part.
    rng = Random(34)
    cases = []
    generators = [I, Quat(0, 0, Fraction(2, 3), Fraction(-1, 5))] + [_mixed_quat(rng).pure_part() for _ in range(4)]
    for u in generators:
        members = [_mixed_quat(rng).w + u * _mixed_quat(rng).x for _ in range(5)]
        for q in [*members, *(_mixed_quat(rng) for _ in range(5)), u * Fraction(1, 3) + I, ZERO]:
            cases.append((Centralizer.quadratic(u), q, q.commutes_with(u)))
            cases.append((Centralizer.center(), q, q.is_central()))
            cases.append((Centralizer.full(), q, True))
    assert {answer for _, _, answer in cases} == {True, False}
    fractions_and_quat_products.clear()
    assert [c.contains(q) for c, q, _ in cases] == [answer for _, _, answer in cases]
    assert fractions_and_quat_products == []


def test_growth_reads_the_integers(fractions_and_quat_products):
    # `_growth` takes the sum of the squared numerators and the denominator
    # straight from the Quat, and returns the float that the coordinates
    # and the norm gave.
    rng = Random(35)
    quats = [_mixed_quat(rng) * rng.randint(1, 10**30) for _ in range(40)] + [Quat(1), -K, ZERO]
    expected = [
        max(log2(int(q.norm() * m * m)) / 2, log2(m)) if q else 0.0
        for q in quats
        for m in [lcm(*(v.denominator for v in q.coords()))]
    ]
    fractions_and_quat_products.clear()
    assert [scalars._growth(q) for q in quats] == expected
    assert fractions_and_quat_products == []


def test_benchmark_micro_cases_run(monkeypatch):
    # The traced benchmark run times these cases: they call
    # `left_linear_solve` and time the systems that `lclm` and a 2-variable
    # `rabinowitsch_check` hand to `rref`, so each of those must stay.  The
    # 2-variable case still hands one: at N = 1 the system that lifts ap
    # over the generators is the system over the generators alone.
    monkeypatch.syspath_prepend(str(SOURCE.parents[1]))
    from perfbench.micro import micro_metrics

    metrics = micro_metrics(quatca)
    assert metrics
    assert all(value > 0 for value, _ in metrics.values())

def test_rows_hold_ints_where_the_denominator_is_one(rref_systems):
    # The rows `scalars` hands to `rref` come from the numerators: a plain
    # int over denominator 1 or for a zero numerator, a Fraction otherwise.
    mixed = Quat(Fraction(1, 2), 0, Fraction(-3, 4), 1)
    left_rank([Quat(1, -2, 0, 3), mixed], Centralizer.center())
    (rows, ncols), = rref_systems
    assert ncols == 2
    assert [type(row[0]) for row in rows] == [int] * 4
    assert [row[1] for row in rows] == [Fraction(1, 2), 0, Fraction(-3, 4), 1]
    assert [type(row[1]) for row in rows] == [Fraction, int, Fraction, Fraction]


def _imported_packages(code, packages):
    """The modules of the given top-level packages loaded after running
    `code` in a fresh interpreter on this checkout's source."""
    code += f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))\n"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_elimination_imports_no_sympy():
    # Importing sympy costs tens of MB and a third of a second; the
    # certificate and linear-algebra paths must not pull it in.
    code = """
import sys
from fractions import Fraction
from quatca import linalg
from quatca.mpoly import CommutingPoint, point_ideal, rabinowitsch_check
from quatca.scalars import Centralizer, I, J, K, Quat, find_conjugator, left_rank

point = CommutingPoint([I, Quat(1, 1)])
g = point_ideal(point).gens[0]
rabinowitsch_check(point_ideal(point), g, K, 2, 1)
left_rank([J, K], Centralizer.quadratic(I))
find_conjugator(I, J)
linalg.solve([[Fraction(1), Fraction(2)]], [Fraction(3)])
"""
    assert _imported_packages(code, ("sympy",)) == "[]"


def test_low_degree_root_searches_import_no_sympy():
    # A content of degree <= 2 and a linear cofactor take the closed-form
    # factorization, so a one-shot `quatca roots` on such input never pays
    # the sympy import.
    code = """
import contextlib, io, sys
from quatca import cli
from quatca.scalars import J, Quat
from quatca.upoly import UPoly, left_roots, right_roots

sphere_times_linear = UPoly.from_central([1, 0, 1]) * UPoly.linear(Quat(1, 2, 3))
right_roots(UPoly.from_central([-2, 0, 1]))
right_roots(sphere_times_linear)
right_roots(UPoly([J, Quat(1, 1)]))
left_roots(sphere_times_linear)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--json", "roots", "--poly", "x^2 - 2"]) == 0
"""
    assert _imported_packages(code, ("sympy",)) == "[]"


def test_one_shot_requests_load_neither_dataclasses_nor_the_selfcheck_suites():
    # `dataclasses` brings `inspect`, `ast` and `tokenize` with it, and the
    # suites bring `randgen`: about half of the import of `quatca.cli`,
    # which a request other than `selfcheck` never uses.
    code = """
import contextlib, io, sys
import quatca, quatca.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert quatca.cli.main(["--json", "roots", "--poly", "x^2 - 2"]) == 0
"""
    loaded = _imported_packages(code, ("dataclasses", "inspect", "quatca"))
    assert "'quatca.cli'" in loaded
    for name in ("dataclasses", "inspect", "quatca.selfcheck", "quatca.randgen"):
        assert f"'{name}'" not in loaded


def test_planted_linear_products_import_neither_sympy_nor_numpy():
    # Floats propose the factors of the companion and exact division
    # confirms them, so a planted product of linear factors, a repeated one
    # included, never reaches sympy, and the floats never need numpy.
    code = """
import contextlib, io, sys
from quatca import cli
from quatca.scalars import I, Quat
from quatca.upoly import UPoly, right_roots

right_roots(UPoly.linear(I) * UPoly.linear(Quat(1, 0, 1)) * UPoly.linear(Quat(0, 0, 0, 2)))
right_roots(UPoly.linear(I) * UPoly.linear(I) * UPoly.linear(Quat(1, 2, 3)))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--json", "roots", "--poly", "(x - i)(x - 1 - j)(x - 2k)"]) == 0
"""
    assert _imported_packages(code, ("sympy", "numpy")) == "[]"


def test_field_limit_and_sphere_searches_import_no_sympy():
    # A pure cubic is proved free of factors of degree <= 2 modulo a small
    # prime, and a rational point on a sphere class comes from three
    # squares computed in integers, so none of these pays the import.
    code = """
import contextlib, io, json, sys, tempfile
from quatca import cli, serde
from quatca.modules import ModulePresentation
from quatca.scalars import ONE, ZERO, Centralizer, Quat
from quatca.upoly import UPoly, roots_in_centralizer

members, _ = roots_in_centralizer(UPoly.from_central([6, 0, 1]), Centralizer.full())
assert members
sphere_module = ModulePresentation(2, [[[ZERO, Quat(-6)], [ONE, ZERO]]])  # x^2 + 6
with tempfile.TemporaryDirectory() as tmp:
    path = tmp + "/module.json"
    with open(path, "w") as fh:
        json.dump(serde.module_to_json(sphere_module), fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "roots", "--poly", "x^3 - 2"]) == 0
        assert cli.main(["--json", "eigen", "--module", path]) == 0
"""
    assert _imported_packages(code, ("sympy",)) == "[]"


def test_requests_of_exact_long_options_skip_argparse(monkeypatch, capsys):
    # The benchmark's requests and the README's forms are read from the
    # parser's own actions; argparse's parse, about a quarter of a request,
    # runs only for help and errors.
    import argparse

    from quatca import cli

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a request of exact long options")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(sys, "argv", ["quatca", "--json", "degree", "--a=i", "--b=j"])
    for argv in (
        ["--json", "roots", "--poly=x^2-2"],
        ["eval", "--poly", "x^2 + 1", "--at", "j", "--side", "right", "--json"],
        ["--json", "rabinowitsch", "--ideal=x-i", "--ideal=x-i", "--p=1", "--a=j", "--N=1"],
        None,
    ):
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] in ("ok", "possibly-incomplete", "not-found")


def test_the_cli_reads_no_argparse_internals():
    # `cli.COMMANDS` is the one spec: argparse's parser is built from it,
    # and the argv reader reads it instead of the parser's private state.
    text = (SOURCE / "cli.py").read_text()
    assert not re.findall(r"argparse\._|parser\._|_group_actions|\._actions|\._defaults", text)


def test_a_request_the_reader_reads_builds_no_parser(monkeypatch, capsys):
    # argparse's parser is built only for help, errors and the argvs the
    # reader leaves to it.
    import argparse

    from quatca import cli

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built for a request of exact long options")

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv in (
        ["--json", "roots", "--poly=x^2-2"],
        ["eval", "--poly", "x^2 + 1", "--at", "j", "--side", "right", "--json"],
        ["--json", "rabinowitsch", "--ideal=x-i", "--ideal=x-i", "--p=1", "--a=j", "--N=1"],
        ["reduce", "--poly=x1x2", "--point=i; 1+i"],
    ):
        assert cli.main(argv) == 0
        capsys.readouterr()
    with pytest.raises(AssertionError, match="parser was built"):
        cli.main(["roots", "-h"])


def test_factoring_and_square_modules_expose_one_entry_point_each():
    # The tracer wraps every public function of these modules, so a public
    # helper would add spans and shift the per-layer metrics.
    def public(module):
        tree = ast.parse((SOURCE / f"{module}.py").read_text())
        return {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}

    assert public("ratfactor") == {"factor_central"}
    assert public("intmath") == {"rational_sqrt", "three_squares"}


def _names_in(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _kernel_names_in(tree: ast.AST) -> Counter:
    """The names a benchmark file reaches in the kernel: attributes on a
    chain through `qc` or `quatca` (`qc.f`, `self.qc.f`, `quatca.cli.f`)
    and names imported from quatca.  A benchmark helper of the same name
    as a kernel definition is not a use of it."""
    kernel = {"qc", "quatca"}
    names = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "quatca":
            names.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Attribute) and kernel & set(ast.unparse(n.value).split(".")):
            names[n.attr] += 1
    return names


def test_every_public_definition_is_used_outside_the_tests():
    # Helpers that only their own tests use are deleted with those tests.
    # Kept on purpose: `module_to_json` and `rand_pure_quat` are test
    # fixtures, and `nullspace` is an independent oracle for the tests.
    kept = {"module_to_json", "rand_pure_quat", "nullspace"}
    trees = {path: ast.parse(path.read_text()) for path in SOURCE.glob("*.py")}
    uses = sum((_names_in(tree) for tree in trees.values()), Counter())
    for path in (SOURCE.parents[1] / "perfbench").glob("*.py"):
        uses += _kernel_names_in(ast.parse(path.read_text()))
    unused = sorted(
        node.name
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in kept
        and uses[node.name] == _names_in(node)[node.name]
    )
    assert unused == []


def test_every_refusal_bound_is_a_row_of_one_table_that_the_readme_states():
    # Limits and refusal messages live in `errors.BOUNDS` alone, and the
    # README's bounds paragraph states each limit as it writes numbers.
    for path in SOURCE.glob("*.py"):
        if path.name != "errors.py":
            assert not re.search("the bound of|deeper than", path.read_text()), path.name
    readme = (SOURCE.parents[1] / "README.md").read_text()
    start = readme.index("Bounds keep a short input")
    paragraph = readme[start : readme.index("\n\n", start)]
    for row, (limit, _) in BOUNDS.items():
        assert re.search(rf"(?<![\d,]){limit:,}(?!,?\d)", paragraph), row
