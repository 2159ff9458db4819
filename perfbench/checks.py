"""Independent checks of quatca's answers.

Each check takes an instance (plain data from `gen`) and the answer in
plain form, and returns a list of problems; an empty list means the answer
is right.  The arithmetic is the benchmark's own (`qarith`), so a defect in
quatca's scalar or polynomial layers cannot vouch for itself.  The only
quatca call is `parse_mpoly`, to read back the quotient text `reduce`
prints.
"""

from __future__ import annotations

from fractions import Fraction

from .qarith import (
    ONE,
    ZERO,
    central_rem,
    commute,
    eval_left,
    eval_right,
    is_zero,
    madd,
    mconst,
    meval,
    mmul,
    point_gens,
    qinv,
    qmul,
    qadd,
    qnorm,
    quat_from_json,
    upoly_from_json,
    mpoly_from_json,
)


def _degree_over(x, others) -> int:
    """Minimal one-sided degree of x over the centralizer of `others`."""
    return 1 if all(commute(x, o) for o in others) else 2


# -- roots -----------------------------------------------------------------------

def check_roots(inst, classes, complete, spaces=None, members=None) -> list[str]:
    """classes: ("isolated", a) or ("sphere", t, n); spaces: {a: basis};
    members: quaternions returned as sphere representatives."""
    p = inst["poly"]
    bad = []
    found_points, found_spheres = set(), set()
    for cls in classes:
        if cls[0] == "isolated":
            a = cls[1]
            found_points.add(a)
            if not is_zero(eval_left(p, a)):
                bad.append(f"isolated root {a} does not vanish")
        else:
            t, n = cls[1], cls[2]
            found_spheres.add((t, n))
            if t * t - 4 * n >= 0:
                bad.append(f"sphere ({t}, {n}) has a nonnegative discriminant")
            elif central_rem(p, [n, -t, Fraction(1)]):
                bad.append(f"sphere ({t}, {n}) does not right-divide p")
    if complete:
        for kind, value in inst["planted"]:
            if kind == "sphere":
                hit = value in found_spheres
            else:
                sphere = (2 * value[0], qnorm(value))
                hit = value in found_points or sphere in found_spheres
            if not hit:
                bad.append(f"complete answer misses the planted {kind} {value}")
    for a, basis in (spaces or {}).items():
        for r in basis:
            if is_zero(r) or not is_zero(eval_left(p, qmul(qmul(r, a), qinv(r)))):
                bad.append(f"root-space vector {r} at {a} does not conjugate a into a root")
    for m in members or ():
        if not is_zero(eval_left(p, m)):
            bad.append(f"sphere representative {m} is not a root")
    return bad


def oracle_split(companion: list[Fraction]) -> bool:
    """True when the rational companion polynomial splits into linear
    factors and quadratics with negative discriminant (so an incomplete
    search is a budget miss); False for a field limit."""
    from sympy import Poly, QQ, symbols

    x = symbols("x")
    _, factors = Poly(list(reversed(companion)), x, domain=QQ).factor_list()
    for f, _mult in factors:
        deg = f.degree()
        if deg == 1:
            continue
        if deg == 2:
            a, b, c = f.all_coeffs()
            if b * b - 4 * a * c < 0:
                continue
        return False
    return True


# -- certificates --------------------------------------------------------------------

def check_certificate(inst, outcome) -> list[str]:
    """outcome: ("found", N, cofactors[k][j] as plain polys) or ("not-found",)."""
    if outcome[0] != inst["expect"]:
        return [f"expected {inst['expect']}, got {outcome[0]}"]
    if outcome[0] == "not-found":
        return []
    _, N, cofactors = outcome
    bad = []
    if inst["mode"] == "find" and N != 1:
        bad.append(f"p lies in the ideal, so the least power is 1, not {N}")
    if inst["mode"] == "check" and N != inst["N"]:
        bad.append(f"certificate for power {N}, asked for {inst['N']}")
    nvars = inst["nvars"]
    ap = mmul(mconst(inst["a"], nvars), inst["p"])
    powers = [mconst(ONE, nvars)]
    for _ in range(N):
        powers.append(mmul(powers[-1], ap))
    gens = point_gens(inst["point"])
    rebuilt: dict = {}
    for k, row in enumerate(cofactors):
        for h, g in zip(row, gens):
            rebuilt = madd(rebuilt, mmul(mmul(h, g), powers[k]))
    if rebuilt != powers[N]:
        bad.append("cofactors do not rebuild (a p)^N")
    return bad


# -- eigen tuples -------------------------------------------------------------------------

def check_eigen(module, v, point) -> list[str]:
    if all(is_zero(c) for c in v):
        return ["eigenvector is zero"]
    bad = []
    for i, (mat, a) in enumerate(zip(module["mats"], point)):
        for c in range(module["m"]):
            lhs = ZERO
            for r in range(module["m"]):
                lhs = qadd(lhs, qmul(v[r], mat[r][c]))
            if lhs != qmul(a, v[c]):
                bad.append(f"v A_{i + 1} != a_{i + 1} v in coordinate {c}")
                break
    for s in range(len(point)):
        for t in range(s):
            if not commute(point[s], point[t]):
                bad.append("eigenvalues do not commute")
    return bad


# -- CLI reports ------------------------------------------------------------------------------

def _check_minpoly(inst, payload):
    poly = upoly_from_json(payload["poly_json"])
    e = inst["element"]
    value = eval_left(poly, e) if inst["side"] == "left" else eval_right(poly, e)
    bad = []
    if poly[-1] != ONE or not is_zero(value):
        bad.append("polynomial is not monic or does not vanish at the element")
    if any(not commute(c, o) for c in poly for o in inst["over"]):
        bad.append("a coefficient lies outside the centralizer")
    if len(poly) - 1 != _degree_over(e, inst["over"]):
        bad.append(f"degree {len(poly) - 1} is not minimal")
    return bad


def _check_wedderburn(inst, payload):
    poly = upoly_from_json(payload["poly_json"])
    b, gens = inst["element"], inst["generators"]
    bad = []
    if poly[-1] != ONE or not is_zero(eval_left(poly, b)):
        bad.append("Wedderburn polynomial is not monic or misses the element")
    if any(not commute(c, g) for c in poly for g in gens):
        bad.append("a coefficient does not commute with the generators")
    if len(poly) - 1 != _degree_over(b, gens):
        bad.append(f"degree {len(poly) - 1} is not minimal")
    return bad


def _check_witness(inst, payload):
    a, b = inst["a"], inst["b"]
    coeffs = [quat_from_json(c) for c in payload["coefficients_json"]]
    n = len(coeffs)
    total = ONE
    for _ in range(n):
        total = qmul(total, a)
    power = ONE
    for c in coeffs:
        total = qadd(total, qmul(power, c))
        power = qmul(power, a)
    bad = []
    if not is_zero(total):
        bad.append("witness identity a^n + sum a^k c_k = 0 fails")
    if any(not commute(c, b) for c in coeffs):
        bad.append("a witness coefficient does not commute with b")
    if n != _degree_over(a, [b]):
        bad.append(f"witness degree {n} is not minimal")
    return bad


def _check_reduce(inst, payload):
    from quatca import parse_mpoly

    p, point = inst["p"], inst["point"]
    r = quat_from_json(payload["remainder_json"])
    total = mconst(r, 2)
    for text, g in zip(payload["quotients"], point_gens(point)):
        qi = {e: c.coords() for e, c in parse_mpoly(text, 2).terms.items()}
        total = madd(total, mmul(qi, g))
    bad = []
    if total != p:
        bad.append("p != sum q_i g_i + r")
    if r != meval(p, point):
        bad.append("remainder differs from the value at the point")
    return bad


def _check_espace(inst, payload):
    basis = [quat_from_json(b) for b in payload["basis_json"]]
    if payload["dim"] != len(basis) or not basis:
        return ["root space dimension does not match its basis"]
    return check_roots(
        {"poly": inst["poly"], "planted": []}, [], False, spaces={inst["root"]: basis}
    )


def _check_eval(inst, payload):
    value = quat_from_json(payload["value_json"])
    ev = eval_left if inst["side"] == "left" else eval_right
    return [] if value == ev(inst["poly"], inst["at"]) else ["wrong value"]


def _check_rabinowitsch(inst, report):
    if report["status"] == "not-found":
        return check_certificate(inst, ("not-found",))
    cert = report["payload"]["certificate"]
    cofactors = [[mpoly_from_json(h) for h in row] for row in cert["cofactors"]]
    return check_certificate(inst, ("found", cert["N"], cofactors))


def root_classes_from_json(items):
    out = []
    for c in items:
        if c["kind"] == "isolated":
            out.append(("isolated", quat_from_json(c["a"])))
        else:
            out.append(("sphere", Fraction(c["t"]), Fraction(c["n"])))
    return out


def check_report(kind, inst, report) -> list[str]:
    """Check one `quatca --json` report of the `queries` workload."""
    payload = report["payload"]
    if kind == "roots":
        complete = payload["search"] == "complete"
        return check_roots(inst, root_classes_from_json(payload["classes"]), complete)
    if kind == "eigen":
        if report["status"] != "ok":
            return ["no eigenvector for a module that has one"]
        eig = payload["eigen"]
        v = [quat_from_json(c) for c in eig["vector"]]
        point = [quat_from_json(c) for c in eig["point"]["components"]]
        return check_eigen(inst["module"], v, point)
    if kind == "indep":
        return [] if payload["independent"] == inst["expect"] else ["wrong independence verdict"]
    if kind == "degree":
        degs = (payload["left_degree"], payload["right_degree_of_a_over_centralizer_of_b"])
        return [] if degs == (inst["expect"],) * 2 else [f"degrees {degs}, expected {inst['expect']}"]
    if kind == "rabinowitsch":
        return _check_rabinowitsch(inst, report)
    return {
        "eval": _check_eval,
        "minpoly": _check_minpoly,
        "wedderburn": _check_wedderburn,
        "witness": _check_witness,
        "reduce": _check_reduce,
        "espace": _check_espace,
    }[kind](inst, payload)
