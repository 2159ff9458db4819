"""Seeded property suites runnable from the CLI.

Each suite runs a fixed number of exact randomized instances and reports
only its pass and fail counts, not the failing instances.  The pytest
suite exercises the same properties at the full advertised instance counts;
this runner exists so a deployed build can re-verify itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import parsing, ratexpr
from .modules import EigenTuple, ModulePresentation, find_eigen_tuple
from .mpoly import (
    MPoly,
    RabinowitschCertificate,
    eval_at_point,
    point_ideal,
    reduce_mod_point,
)
from .randgen import (
    rand_commuting_point,
    rand_module,
    rand_mpoly,
    rand_nonzero_quat,
    rand_quat,
    rand_upoly,
)
from .scalars import (
    ONE,
    Quat,
    ZERO,
    centralizer_of_set,
    commutator,
    find_conjugator,
)
from .upoly import (
    RootSearchStatus,
    UPoly,
    gcrd,
    lclm,
    right_roots,
    root_space,
    root_space_dim,
    wedderburn_lclm,
)

DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _quat_laws(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        a, b, c = (rand_quat(rng) for _ in range(3))
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            bad += 1
            continue
        if (a * b).conjugate() != b.conjugate() * a.conjugate():
            bad += 1
            continue
        if (a * b).norm() != a.norm() * b.norm():
            bad += 1
            continue
        if a and a * a.inverse() != ONE:
            bad += 1
    return SuiteResult("quaternion-ring-laws", count - bad, bad)


def _centralizers(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        size = rng.randint(0, 3)
        elements = [rand_quat(rng, 5) for _ in range(size)]
        desc = centralizer_of_set(elements)
        member = sum((e * Quat.scalar(rng.randint(-3, 3)) for e in desc.basis()), ZERO)
        if any(commutator(member, s) for s in elements):
            bad += 1
            continue
        outsider = rand_quat(rng, 5)
        if not desc.contains(outsider) and all(
            not commutator(outsider, s) for s in elements
        ):
            bad += 1
    return SuiteResult("centralizer-descriptors", count - bad, bad)


def _conjugators(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        a = rand_quat(rng, 5)
        if rng.random() < 0.5:
            r0 = rand_nonzero_quat(rng, 5)
            b = r0 * a * r0.inverse()
        else:
            b = rand_quat(rng, 5)
        r = find_conjugator(a, b)
        if r is None:
            same_class = a.scalar_part() == b.scalar_part() and a.norm() == b.norm()
            if same_class:
                bad += 1
        elif not r or r * a * r.inverse() != b:
            bad += 1
    return SuiteResult("conjugator-witness", count - bad, bad)


def _product_formula(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for trial in range(count):
        p = rand_upoly(rng, 5)
        a = rand_quat(rng, 5)
        if trial % 2:
            q = rand_upoly(rng, 4) * UPoly.linear(a)  # force the zero branch
        else:
            q = rand_upoly(rng, 5)
        value = q.eval_left(a)
        product = (p * q).eval_left(a)
        if not value:
            if product != ZERO:
                bad += 1
        else:
            conj = value * a * value.inverse()
            if product != p.eval_left(conj) * value:
                bad += 1
    return SuiteResult("product-formula", count - bad, bad)


def _remainder_law(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        p = rand_upoly(rng, 6)
        a = rand_quat(rng, 6)
        quot, rem = p.divmod_right(UPoly.linear(a))
        if rem.degree > 0 or quot * UPoly.linear(a) + rem != p:
            bad += 1
            continue
        value = rem.coeff(0) if rem.coeffs else ZERO
        if value != p.eval_left(a):
            bad += 1
    return SuiteResult("remainder-law", count - bad, bad)


def _gcrd_lclm(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for trial in range(count):
        p = rand_upoly(rng, 3, 4)
        if trial % 2:
            q = rand_upoly(rng, 2, 4) * gcrd(p, p)  # share a right factor
        else:
            q = rand_upoly(rng, 3, 4)
        g = gcrd(p, q)
        m = lclm(p, q)
        if m.degree + g.degree != p.degree + q.degree:
            bad += 1
            continue
        if not p.divmod_right(g)[1].is_zero() or not q.divmod_right(g)[1].is_zero():
            bad += 1
            continue
        if not m.divmod_right(p)[1].is_zero() or not m.divmod_right(q)[1].is_zero():
            bad += 1
    return SuiteResult("gcrd-lclm-degree-identity", count - bad, bad)


def _root_inequality(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        factors = [rand_quat(rng, 4, integer=True) for _ in range(rng.randint(1, 4))]
        p = UPoly.constant(ONE)
        for a in factors:
            p = p * UPoly.linear(a)
        classes: list[Quat] = []
        for a in factors:
            if not any(
                a.scalar_part() == b.scalar_part() and a.norm() == b.norm()
                for b in classes
            ):
                classes.append(a)
        total = sum(root_space_dim(p, a) for a in classes)
        if total > p.degree:
            bad += 1
    return SuiteResult("root-class-inequality", count - bad, bad)


def _wedderburn_equality(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        b = rand_quat(rng, 4)
        gens = [rand_nonzero_quat(rng, 4) for _ in range(rng.randint(1, 2))]
        p = wedderburn_lclm(b, gens)
        if root_space(p, b).dim != p.degree:
            bad += 1
            continue
        mover = next((g for g in gens if commutator(g, b)), None)
        expected = UPoly.linear(b) if mover is None else lclm(
            UPoly.linear(b), UPoly.linear(mover * b * mover.inverse()))
        if p != expected:
            bad += 1
    return SuiteResult("wedderburn-root-space-equality", count - bad, bad)


def _independence(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for trial in range(count):
        a = rand_quat(rng, 5)
        size = rng.randint(1, 4)
        bs = [rand_quat(rng, 5) for _ in range(size)]
        if trial % 3 == 0 and size >= 2:
            # plant a dependence over the centralizer of a
            c = centralizer_of_set([a])
            mixer = sum(
                (e * Quat.scalar(rng.randint(-2, 2)) for e in c.basis()), ZERO
            )
            bs[-1] = mixer * bs[0]
        if ratexpr.independent_via_criterion(a, bs) != ratexpr.independent_via_rank(a, bs):
            bad += 1
    return SuiteResult("independence-criterion-vs-rank", count - bad, bad)


def _degrees(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        a = rand_quat(rng, 5)
        b = rand_quat(rng, 5)
        via_rank = ratexpr.left_degree_via_rank(a, b)
        if via_rank not in (1, 2):
            bad += 1
            continue
        if ratexpr.left_degree_via_criterion(a, b) != via_rank:
            bad += 1
            continue
        if ratexpr.right_degree(b, a) != via_rank:
            bad += 1
            continue
        witness = ratexpr.algebraicity_witness(a, b)
        total = a ** len(witness)
        for k, coeff in enumerate(witness):
            total = total + (a**k) * coeff
        if total or any(not w.commutes_with(b) for w in witness):
            bad += 1
    return SuiteResult("degree-criterion-and-symmetry", count - bad, bad)


def _point_reduction(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        nvars = rng.randint(1, 3)
        pt = rand_commuting_point(rng, nvars)
        p = rand_mpoly(rng, nvars, 4)
        remainder, quotients = reduce_mod_point(p, pt)
        rebuilt = MPoly.constant(remainder, nvars)
        for q, g in zip(quotients, point_ideal(pt).gens):
            rebuilt = rebuilt + q * g
        if rebuilt != p or remainder != eval_at_point(p, pt):
            bad += 1
    return SuiteResult("point-reduction-reconstruction", count - bad, bad)


def _eigen(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for _ in range(count):
        nvars = rng.randint(1, 3)
        m = rng.randint(1, 4)
        module, _ = rand_module(rng, nvars, m)
        out = find_eigen_tuple(module)
        if not isinstance(out, EigenTuple):
            bad += 1
            continue
        for i in range(nvars):
            if module.act(i, out.v) != tuple(out.point[i] * c for c in out.v):
                bad += 1
                break
    return SuiteResult("eigen-tuple-extraction", count - bad, bad)


def _certificates(rng: Random, count: int) -> SuiteResult:
    from .mpoly import rabinowitsch_check

    bad = 0
    for _ in range(count):
        nvars = rng.randint(1, 2)
        pt = rand_commuting_point(rng, nvars, height=2)
        ideal = point_ideal(pt)
        index = rng.randrange(nvars)
        p = ideal.gens[index]
        a = rand_nonzero_quat(rng, 2)
        out = rabinowitsch_check(ideal, p, a, rng.randint(1, 2), 1)
        if not isinstance(out, RabinowitschCertificate):
            bad += 1
    return SuiteResult("membership-certificates", count - bad, bad)


def _honest_failures(rng: Random, count: int) -> SuiteResult:
    bad = 0
    classes, status = right_roots(UPoly.from_central([-2, 0, 1]))
    if classes or status != RootSearchStatus.POSSIBLY_INCOMPLETE:
        bad += 1
    module = ModulePresentation(2, [[[ZERO, Quat.scalar(2)], [ONE, ZERO]]])
    out = find_eigen_tuple(module)
    if isinstance(out, EigenTuple):
        bad += 1
    return SuiteResult("honest-failure-paths", 2 - bad, bad)


def _round_trip(rng: Random, count: int) -> SuiteResult:
    bad = 0
    for trial in range(count):
        q = rand_quat(rng)
        if parsing.parse_quat(str(q)) != q:
            bad += 1
            continue
        p = rand_upoly(rng, 4)
        if parsing.parse_upoly(str(p)) != p:
            bad += 1
            continue
        m = rand_mpoly(rng, rng.randint(1, 3), 3)
        if parsing.parse_mpoly(str(m), m.nvars) != m:
            bad += 1
    return SuiteResult("print-parse-round-trip", count - bad, bad)


_SUITES = [
    (_quat_laws, 200),
    (_centralizers, 200),
    (_conjugators, 200),
    (_product_formula, 200),
    (_remainder_law, 200),
    (_gcrd_lclm, 60),
    (_root_inequality, 60),
    (_wedderburn_equality, 60),
    (_independence, 200),
    (_degrees, 200),
    (_point_reduction, 60),
    (_eigen, 25),
    (_certificates, 10),
    (_honest_failures, 2),
    (_round_trip, 200),
]


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run every suite with a fresh seeded generator; returns a JSON-ready
    report with per-suite pass counts."""
    results = []
    for fn, count in _SUITES:
        rng = Random(seed)
        results.append(fn(rng, count))
    return {
        "seed": seed,
        "ok": all(r.ok for r in results),
        "suites": [
            {"name": r.name, "passed": r.passed, "failed": r.failed}
            for r in results
        ],
    }
