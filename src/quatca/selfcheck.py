"""Seeded property suites runnable from the CLI.

Each suite is one instance check, `check(rng, trial) -> bool`, listed in
`_SUITES` as `(name, check, count)`.  `run_all` is the only loop: it gives
every suite a fresh `Random(seed)`, runs its check `count` times and
reports only the pass and fail counts, not the failing instances.  A check
returns False at its first failed property and draws nothing after it.
Exceptions propagate, so an `InternalError` still reaches the CLI.  The
pytest suite exercises the same properties at the full advertised instance
counts; this runner exists so a deployed build can re-verify itself.
"""

from __future__ import annotations

from random import Random

from . import parsing, ratexpr
from .modules import EigenTuple, ModulePresentation, find_eigen_tuple
from .mpoly import (
    MPoly,
    RabinowitschCertificate,
    eval_at_point,
    point_ideal,
    rabinowitsch_check,
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


def _same_class(a: Quat, b: Quat) -> bool:
    return a.scalar_part() == b.scalar_part() and a.norm() == b.norm()


def _quat_laws(rng: Random, trial: int) -> bool:
    a, b, c = (rand_quat(rng) for _ in range(3))
    return (
        (a * b) * c == a * (b * c)
        and a * (b + c) == a * b + a * c
        and (a * b).conjugate() == b.conjugate() * a.conjugate()
        and (a * b).norm() == a.norm() * b.norm()
        and (not a or a * a.inverse() == ONE)
    )


def _centralizers(rng: Random, trial: int) -> bool:
    elements = [rand_quat(rng, 5) for _ in range(rng.randint(0, 3))]
    desc = centralizer_of_set(elements)
    member = sum((e * Quat.scalar(rng.randint(-3, 3)) for e in desc.basis()), ZERO)
    if any(commutator(member, s) for s in elements):
        return False
    outsider = rand_quat(rng, 5)
    return desc.contains(outsider) or any(commutator(outsider, s) for s in elements)


def _conjugators(rng: Random, trial: int) -> bool:
    a = rand_quat(rng, 5)
    if rng.random() < 0.5:
        r0 = rand_nonzero_quat(rng, 5)
        b = r0 * a * r0.inverse()
    else:
        b = rand_quat(rng, 5)
    r = find_conjugator(a, b)
    if r is None:
        return not _same_class(a, b)
    return bool(r) and r * a * r.inverse() == b


def _product_formula(rng: Random, trial: int) -> bool:
    p = rand_upoly(rng, 5)
    a = rand_quat(rng, 5)
    if trial % 2:
        q = rand_upoly(rng, 4) * UPoly.linear(a)  # force the zero branch
    else:
        q = rand_upoly(rng, 5)
    value = q.eval_left(a)
    product = (p * q).eval_left(a)
    if not value:
        return product == ZERO
    return product == p.eval_left(value * a * value.inverse()) * value


def _remainder_law(rng: Random, trial: int) -> bool:
    p = rand_upoly(rng, 6)
    a = rand_quat(rng, 6)
    quot, rem = p.divmod_right(UPoly.linear(a))
    if rem.degree > 0 or quot * UPoly.linear(a) + rem != p:
        return False
    return (rem.coeff(0) if rem.coeffs else ZERO) == p.eval_left(a)


def _gcrd_lclm(rng: Random, trial: int) -> bool:
    p = rand_upoly(rng, 3, 4)
    if trial % 2:
        q = rand_upoly(rng, 2, 4) * gcrd(p, p)  # share a right factor
    else:
        q = rand_upoly(rng, 3, 4)
    g = gcrd(p, q)
    m = lclm(p, q)
    return (
        m.degree + g.degree == p.degree + q.degree
        and all(f.divmod_right(g)[1].is_zero() for f in (p, q))
        and all(m.divmod_right(f)[1].is_zero() for f in (p, q))
    )


def _root_inequality(rng: Random, trial: int) -> bool:
    factors = [rand_quat(rng, 4, integer=True) for _ in range(rng.randint(1, 4))]
    p = UPoly.constant(ONE)
    for a in factors:
        p = p * UPoly.linear(a)
    classes: list[Quat] = []
    for a in factors:
        if not any(_same_class(a, b) for b in classes):
            classes.append(a)
    return sum(root_space_dim(p, a) for a in classes) <= p.degree


def _wedderburn_equality(rng: Random, trial: int) -> bool:
    b = rand_quat(rng, 4)
    gens = [rand_nonzero_quat(rng, 4) for _ in range(rng.randint(1, 2))]
    p = wedderburn_lclm(b, gens)
    if root_space(p, b).dim != p.degree:
        return False
    mover = next((g for g in gens if commutator(g, b)), None)
    expected = UPoly.linear(b) if mover is None else lclm(
        UPoly.linear(b), UPoly.linear(mover * b * mover.inverse()))
    return p == expected


def _independence(rng: Random, trial: int) -> bool:
    a = rand_quat(rng, 5)
    size = rng.randint(1, 4)
    bs = [rand_quat(rng, 5) for _ in range(size)]
    if trial % 3 == 0 and size >= 2:
        # plant a dependence over the centralizer of a
        c = centralizer_of_set([a])
        mixer = sum((e * Quat.scalar(rng.randint(-2, 2)) for e in c.basis()), ZERO)
        bs[-1] = mixer * bs[0]
    return ratexpr.independent_via_criterion(a, bs) == ratexpr.independent_via_rank(a, bs)


def _degrees(rng: Random, trial: int) -> bool:
    a = rand_quat(rng, 5)
    b = rand_quat(rng, 5)
    via_rank = ratexpr.left_degree_via_rank(a, b)
    if (
        via_rank not in (1, 2)
        or ratexpr.left_degree_via_criterion(a, b) != via_rank
        or ratexpr.right_degree(b, a) != via_rank
    ):
        return False
    witness = ratexpr.algebraicity_witness(a, b)
    total = a ** len(witness)
    for k, coeff in enumerate(witness):
        total = total + (a**k) * coeff
    return not total and all(w.commutes_with(b) for w in witness)


def _point_reduction(rng: Random, trial: int) -> bool:
    nvars = rng.randint(1, 3)
    pt = rand_commuting_point(rng, nvars)
    p = rand_mpoly(rng, nvars, 4)
    remainder, quotients = reduce_mod_point(p, pt)
    rebuilt = MPoly.constant(remainder, nvars)
    for q, g in zip(quotients, point_ideal(pt).gens):
        rebuilt = rebuilt + q * g
    return rebuilt == p and remainder == eval_at_point(p, pt)


def _eigen(rng: Random, trial: int) -> bool:
    nvars = rng.randint(1, 3)
    module, _ = rand_module(rng, nvars, rng.randint(1, 4))
    out = find_eigen_tuple(module)
    return isinstance(out, EigenTuple) and all(
        module.act(i, out.v) == tuple(out.point[i] * c for c in out.v)
        for i in range(nvars)
    )


def _certificates(rng: Random, trial: int) -> bool:
    nvars = rng.randint(1, 2)
    ideal = point_ideal(rand_commuting_point(rng, nvars, height=2))
    p = ideal.gens[rng.randrange(nvars)]
    a = rand_nonzero_quat(rng, 2)
    out = rabinowitsch_check(ideal, p, a, rng.randint(1, 2), 1)
    return isinstance(out, RabinowitschCertificate)


def _honest_failures(rng: Random, trial: int) -> bool:
    # Trial 0: x^2 - 2 has no rational root class; trial 1: the action
    # [[0, 2], [1, 0]] has no rational eigenvalue.  Neither may be faked.
    if trial == 0:
        classes, status = right_roots(UPoly.from_central([-2, 0, 1]))
        return not classes and status == RootSearchStatus.POSSIBLY_INCOMPLETE
    module = ModulePresentation(2, [[[ZERO, Quat.scalar(2)], [ONE, ZERO]]])
    return not isinstance(find_eigen_tuple(module), EigenTuple)


def _round_trip(rng: Random, trial: int) -> bool:
    q = rand_quat(rng)
    if parsing.parse_quat(str(q)) != q:
        return False
    p = rand_upoly(rng, 4)
    if parsing.parse_upoly(str(p)) != p:
        return False
    m = rand_mpoly(rng, rng.randint(1, 3), 3)
    return parsing.parse_mpoly(str(m), m.nvars) == m


_SUITES = [
    ("quaternion-ring-laws", _quat_laws, 200),
    ("centralizer-descriptors", _centralizers, 200),
    ("conjugator-witness", _conjugators, 200),
    ("product-formula", _product_formula, 200),
    ("remainder-law", _remainder_law, 200),
    ("gcrd-lclm-degree-identity", _gcrd_lclm, 60),
    ("root-class-inequality", _root_inequality, 60),
    ("wedderburn-root-space-equality", _wedderburn_equality, 60),
    ("independence-criterion-vs-rank", _independence, 200),
    ("degree-criterion-and-symmetry", _degrees, 200),
    ("point-reduction-reconstruction", _point_reduction, 60),
    ("eigen-tuple-extraction", _eigen, 25),
    ("membership-certificates", _certificates, 10),
    ("honest-failure-paths", _honest_failures, 2),
    ("print-parse-round-trip", _round_trip, 200),
]


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run every suite with a fresh seeded generator; returns a JSON-ready
    report with per-suite pass counts."""
    suites = []
    for name, check, count in _SUITES:
        rng = Random(seed)
        passed = sum(1 for trial in range(count) if check(rng, trial))
        suites.append({"name": name, "passed": passed, "failed": count - passed})
    return {
        "seed": seed,
        "ok": all(s["failed"] == 0 for s in suites),
        "suites": suites,
    }
