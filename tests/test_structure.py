"""Design guards: quaternion-linear problems reach the rational eliminator
only through `scalars`, so `linalg` has exactly one importer, and the
systems handed to it stay as small and as few as the algorithms need."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quatca
from quatca import linalg
from quatca.mpoly import (
    CommutingPoint,
    LeftIdeal,
    MPoly,
    NotFoundWithinBounds,
    RabinowitschCertificate,
    _bounded_certificate,
    find_certificate,
    point_ideal,
    rabinowitsch_check,
)
from quatca.scalars import Centralizer, I, J, K, ONE, Quat, find_conjugator, left_rank
from quatca.upoly import (
    UPoly,
    lclm,
    minimal_left_poly,
    minimal_right_poly,
    root_space,
    root_space_dim,
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


def test_closed_forms_hand_no_system_to_rref(rref_systems):
    # Root spaces, minimal polynomials and conjugacy witnesses come from the
    # class quadratic of the point (Gordon-Motzkin), not from a rational
    # system.
    sphere = root_space(UPoly.from_central([1, 0, 1]), I)
    isolated = root_space(UPoly.linear(I) * UPoly.linear(I), I)
    assert (sphere.dim, isolated.dim) == (2, 1)
    assert root_space_dim(UPoly.from_central([1, 0, 1]), Quat(1, 1)) == 0
    assert minimal_left_poly(J, Centralizer.quadratic(I)).degree == 2
    assert minimal_right_poly(J, Centralizer.quadratic(I)).degree == 2
    assert find_conjugator(I, J) is not None
    assert find_conjugator(I, -I) is not None
    assert rref_systems == []


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
    # Left ideals of H[x] are principal, so a point-ideal check in one
    # variable is decided by one gcrd and one right division.
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
    # At degree 0 the gcrd cofactors do not fit, so the bounded system runs.
    assert rabinowitsch_check(flagship, g, J, 1, 0) == NotFoundWithinBounds(1, 0)
    assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(16, 8)]


def test_several_variables_hand_the_bounded_system_to_rref(rref_systems):
    # perfbench's traced run takes the largest system a 2-var check hands
    # to rref, so nvars >= 2 keeps its one bounded system.
    gens = (
        MPoly.variable(0, 2) - MPoly.constant(I, 2),
        MPoly.variable(1, 2) - MPoly.constant(Quat(1, 1), 2),
    )
    ideal = LeftIdeal(gens)
    assert isinstance(rabinowitsch_check(ideal, gens[0], K, 2, 1), RabinowitschCertificate)
    assert [(len(rows), ncols) for rows, ncols in rref_systems] == [(48, 72)]
    powers = [MPoly.constant(ONE, 2), gens[0].scale_left(K)]
    powers.append(powers[1] * powers[1])
    bases = [g * powers[k] for k in range(3) for g in gens]
    checked = list(rref_systems)
    _bounded_certificate(ideal, bases, powers, 1)
    assert rref_systems == checked * 2


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
print(sorted(name for name in sys.modules if name.split(".")[0] == "sympy"))
"""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
