"""Seeded instance sets for the three workloads, as plain data.

Every instance is built from `random.Random` and the benchmark's own
arithmetic (`qarith`), never from `quatca.randgen`, so the inputs for a seed
stay fixed while the program changes.  An instance set is a list of blocks;
each block holds the same fixed mix of instance kinds, so any whole number
of blocks has the same composition.  Expected outcomes that follow from the
construction are stored with the instances.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

from .qarith import (
    ONE,
    central,
    commute,
    is_central,
    is_zero,
    linear,
    madd,
    meval,
    mpoly_text,
    pmul,
    q,
    qadd,
    qmul,
    qneg,
    qscale,
    quat_json,
    quat_text,
    upoly_text,
)

BLOCKS = {"queries": 200, "roots": 60, "certificates": 10}


def rat(rng: Random, height: int, dens=(1,)) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.choice(dens))


def quat(rng: Random, height: int, dens=(1,), noncentral=False):
    while True:
        a = tuple(rat(rng, height, dens) for _ in range(4))
        if not is_zero(a) and not (noncentral and is_central(a)):
            return a


def pure(rng: Random, height: int):
    while True:
        u = (Fraction(0),) + tuple(Fraction(rng.randint(-height, height)) for _ in range(3))
        if not is_zero(u):
            return u


def in_field(rng: Random, u, height: int):
    """s + t*u with small integers s, t: an element of the subfield Q(u)."""
    return qadd(q(rng.randint(-height, height)), qscale(u, rng.randint(-height, height)))


def product(roots) -> list:
    p = [ONE]
    for a in roots:
        p = pmul(p, linear(a))
    return p


def instance_hash(blocks) -> str:
    """Digest of the instance set; equal for equal inputs (repr is exact)."""
    return hashlib.sha256(repr(blocks).encode()).hexdigest()[:16]


# -- roots ---------------------------------------------------------------------

def _split(rng, nfactors, height, dens):
    roots = [quat(rng, height, dens) for _ in range(nfactors)]
    return {"poly": product(roots), "planted": [("point", roots[-1])]}


def _split_thirds(rng, nfactors, height):
    """Linear factors with nonzero numerators and one coordinate in thirds.

    Fixing where the denominators go keeps the cost of these products
    within a narrow band while the Kronecker search budget still runs out
    on about a quarter of them."""
    nonzero = [v for v in range(-height, height + 1) if v]
    roots = []
    for _ in range(nfactors):
        dens = [1, 1, 1, 3]
        rng.shuffle(dens)
        roots.append(tuple(Fraction(rng.choice(nonzero), d) for d in dens))
    return {"poly": product(roots), "planted": [("point", roots[-1])]}


def _sphere(rng):
    t = rng.randint(-4, 4)
    n = Fraction(t * t, 4) + rng.randint(1, 9)
    quad = [n, Fraction(-t), Fraction(1)]
    a = quat(rng, 4)
    poly = pmul(central(quad), linear(a))
    return {"poly": poly, "planted": [("point", a), ("sphere", (Fraction(t), n))]}


_NONSQUARES = (2, 3, 5, 6, 7, 10, 11, 13)
_NONCUBES = (2, 3, 4, 5, 6, 7, 9, 10)


def _field(rng):
    """No rational root class can cover these central factors."""
    kind = rng.randrange(3)
    if kind == 0:
        return {"poly": central([-rng.choice(_NONSQUARES), 0, 1]), "planted": []}
    if kind == 1:
        return {"poly": central([-rng.choice(_NONCUBES), 0, 0, 1]), "planted": []}
    while True:
        t, n = rng.randint(-3, 3), rng.randint(-5, -1)
        disc = t * t - 4 * n
        if int(disc**0.5) ** 2 != disc:
            break
    a = quat(rng, 3)
    return {"poly": pmul(central([n, -t, 1]), linear(a)), "planted": [("point", a)]}


ROOTS_MIX = (
    ("split4", 1, lambda rng: _split_thirds(rng, 4, 6)),
    ("split2", 3, lambda rng: _split(rng, 2, 4, (1, 2, 3, 4))),
    ("split-int", 3, lambda rng: _split(rng, rng.randint(2, 3), 6, (1,))),
    ("sphere", 1, _sphere),
    ("field", 2, _field),
)


# -- certificates ----------------------------------------------------------------

def cert_instance(rng, nvars, N, degbound, mode="check", kind=None):
    """A point ideal, p and a with a known answer.

    found: p = sum q_i (x_i - a_i) lies in the ideal, so
    (a p)^N = sum_i (a q_i) (x_i - a_i) (a p)^(N-1): a certificate with
    constant cofactors exists for every N and degbound.
    not-found: point, a and p all lie in one commutative subfield Q(u) and
    p does not vanish at the point; the Q(u)-part of any certificate would
    put (a p)^N in the ideal of the point in Q(u)[x], which evaluation at
    the point rules out.  So no certificate exists for any N and degbound.
    """
    kind = kind or rng.choice(("found", "not-found"))
    u = pure(rng, 2)
    point = [in_field(rng, u, 2) for _ in range(nvars)]
    monos = [(0,) * nvars] + [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    if kind == "found":
        a = quat(rng, 2)
        p: dict = {}
        for i, g in enumerate(point):
            qi = quat(rng, 2)
            var = monos[i + 1]
            p = madd(p, {var: qi, monos[0]: qneg(qmul(qi, g))})
    else:
        while True:
            a = in_field(rng, u, 2)
            p = {}
            for mono in monos:
                p = madd(p, {mono: in_field(rng, u, 2)})
            if not is_zero(a) and p and not is_zero(meval(p, point)):
                break
    return {
        "nvars": nvars, "point": point, "p": p, "a": a, "N": N,
        "degbound": degbound, "mode": mode, "expect": kind,
    }


CERT_MIX = (
    ("1var-N2d2", 18, lambda rng: cert_instance(rng, 1, 2, 2)),
    ("1var-ladder", 1, lambda rng: [cert_instance(rng, 1, n, n) for n in (1, 3, 4)]),
    ("1var-find", 1, lambda rng: cert_instance(rng, 1, 3, 1, mode="find")),
    ("2var-ladder", 1, lambda rng: [cert_instance(rng, 2, n, 1) for n in (1, 2, 3)]),
    ("3var-N1d1", 6, lambda rng: cert_instance(rng, 3, 1, 1, kind="found")),
)


# -- queries ----------------------------------------------------------------------

def _argv(command, *pairs):
    """["cmd", "--opt=value", ...]; the `=` form keeps values such as
    "-1+i" from reading as options."""
    return [command] + [f"{pairs[k]}={pairs[k + 1]}" for k in range(0, len(pairs), 2)]


def _q_eval(rng):
    p = [quat(rng, 3, (1, 2)) for _ in range(rng.randint(3, 4))]
    a = quat(rng, 3, (1, 2))
    side = rng.choice(("left", "right"))
    argv = _argv("eval", "--poly", upoly_text(p), "--at", quat_text(a), "--side", side)
    return {"argv": argv, "poly": p, "at": a, "side": side}


def _q_roots(rng):
    if rng.random() < 0.5:
        inst = _split(rng, rng.randint(1, 2), 4, (1,))
    else:
        t = rng.randint(-3, 3)
        n = Fraction(t * t, 4) + rng.randint(1, 4)
        a = quat(rng, 3)
        inst = {
            "poly": pmul(central([n.numerator, -t * n.denominator, n.denominator]), linear(a)),
            "planted": [("point", a), ("sphere", (Fraction(t), n))],
        }
    return {"argv": _argv("roots", "--poly", upoly_text(inst["poly"])), **inst}


def _q_minpoly(rng):
    e = quat(rng, 4, (1, 2), noncentral=True)
    over = [quat(rng, 3) for _ in range(rng.randint(1, 2))]
    side = rng.choice(("left", "right"))
    argv = _argv("minpoly", "--element", quat_text(e), "--over", ",".join(map(quat_text, over)), "--side", side)
    return {"argv": argv, "element": e, "over": over, "side": side}


def _q_wedderburn(rng):
    b = quat(rng, 3, noncentral=True)
    gens = [quat(rng, 2) for _ in range(rng.randint(1, 2))]
    argv = _argv("wedderburn", "--element", quat_text(b), "--generators", ",".join(map(quat_text, gens)))
    return {"argv": argv, "element": b, "generators": gens}


def _q_espace(rng):
    a = quat(rng, 3, noncentral=True)
    left = linear(quat(rng, 3)) if rng.random() < 0.5 else central([rng.randint(1, 5), 0, 1])
    p = pmul(left, linear(a))
    return {"argv": _argv("espace", "--poly", upoly_text(p), "--root", quat_text(a)), "poly": p, "root": a}


def _q_indep(rng):
    a = quat(rng, 3, noncentral=True)
    shape = rng.randrange(3)
    if shape == 0:
        bs, expect = [quat(rng, 3)], True
    elif shape == 1:
        bs, expect = [quat(rng, 3) for _ in range(3)], False
    else:
        b1 = quat(rng, 3)
        c = qadd(q(rng.randint(-3, 3)), qscale(a, rng.randint(1, 3)))
        bs, expect = [b1, qmul(c, b1)], False
    argv = _argv("indep", "--a", quat_text(a), "--bs", ",".join(map(quat_text, bs)))
    return {"argv": argv, "expect": expect}


def _q_degree(rng):
    a = quat(rng, 3, noncentral=True)
    if rng.random() < 0.5:
        b = qadd(q(rng.randint(-3, 3)), qscale(a, rng.randint(1, 3)))
    else:
        b = quat(rng, 3, noncentral=True)
    expect = 1 if commute(a, b) else 2
    return {"argv": _argv("degree", "--a", quat_text(a), "--b", quat_text(b)), "expect": expect}


def _q_witness(rng):
    a, b = quat(rng, 3, (1, 2)), quat(rng, 3)
    return {"argv": _argv("witness", "--a", quat_text(a), "--b", quat_text(b)), "a": a, "b": b}


def _q_reduce(rng):
    u = pure(rng, 2)
    point = [in_field(rng, u, 2) for _ in range(2)]
    p: dict = {}
    for _ in range(rng.randint(3, 4)):
        exps = (rng.randint(0, 2), rng.randint(0, 1))
        p = madd(p, {exps: quat(rng, 3)})
    if not p:
        p = {(1, 1): ONE}
    argv = _argv("reduce", "--poly", mpoly_text(p), "--point", "; ".join(map(quat_text, point)), "--nvars", "2")
    return {"argv": argv, "p": p, "point": point}


def _mat_mul(x, y):
    m = len(x)
    return [[_dot(x[r], [y[t][c] for t in range(m)]) for c in range(m)] for r in range(m)]


def _dot(row, col):
    acc = (0, 0, 0, 0)
    for a, b in zip(row, col):
        acc = qadd(acc, qmul(a, b))
    return acc


def _identity(m):
    return [[(int(r == c), 0, 0, 0) for c in range(m)] for r in range(m)]


def module_instance(rng, m, nvars):
    """A conjugated direct sum of one-dimensional modules over points in
    Q(i); a common eigenvector exists by construction.  Every entry is an
    integer quaternion, so plain ints keep the construction fast."""
    diag = [[(rng.randint(-3, 3), rng.randint(-3, 3), 0, 0) for _ in range(nvars)] for _ in range(m)]
    u, u_inv = _identity(m), _identity(m)
    for _ in range(3):
        r, s = rng.randrange(m), rng.randrange(m)
        if r == s:
            continue
        lam = tuple(rng.randint(-1, 1) for _ in range(4))
        plus, minus = _identity(m), _identity(m)
        plus[r][s], minus[r][s] = lam, qneg(lam)
        u, u_inv = _mat_mul(u, plus), _mat_mul(minus, u_inv)
    mats = []
    for i in range(nvars):
        d = [[diag[r][i] if r == c else (0, 0, 0, 0) for c in range(m)] for r in range(m)]
        mats.append(_mat_mul(_mat_mul(u, d), u_inv))
    return {"m": m, "mats": mats}


def module_json(module) -> dict:
    return {
        "m": module["m"],
        "mats": [[[quat_json(e) for e in row] for row in mat] for mat in module["mats"]],
    }


def _q_eigen(rng):
    module = module_instance(rng, rng.randint(2, 4), rng.randint(1, 2))
    return {"argv": ["eigen"], "module": module}


def _q_rabinowitsch(rng):
    inst = cert_instance(rng, 1, 2, 2)
    ideal = madd({(1,): ONE}, {(0,): qneg(inst["point"][0])})
    argv = _argv(
        "rabinowitsch", "--ideal", mpoly_text(ideal), "--p", mpoly_text(inst["p"]),
        "--a", quat_text(inst["a"]), "--degbound", 2, "--N", 2,
    )
    return {"argv": argv, **inst}


QUERY_MIX = (
    ("eval", 2, _q_eval),
    ("roots", 2, _q_roots),
    ("minpoly", 2, _q_minpoly),
    ("wedderburn", 1, _q_wedderburn),
    ("espace", 1, _q_espace),
    ("indep", 1, _q_indep),
    ("degree", 1, _q_degree),
    ("witness", 1, _q_witness),
    ("reduce", 1, _q_reduce),
    ("eigen", 1, _q_eigen),
    ("rabinowitsch", 1, _q_rabinowitsch),
)

MIXES = {"queries": QUERY_MIX, "roots": ROOTS_MIX, "certificates": CERT_MIX}


def generate(workload: str, seed: int, nblocks: int | None = None) -> list[list[dict]]:
    """The instance set: blocks of (kind, instance) in a seeded order."""
    rng = Random(f"{workload}:{seed}")
    blocks = []
    for _ in range(nblocks or BLOCKS[workload]):
        block = []
        for kind, count, make in MIXES[workload]:
            for _ in range(count):
                made = make(rng)
                for inst in made if isinstance(made, list) else [made]:
                    block.append({"kind": kind, "data": inst})
        rng.shuffle(block)
        blocks.append(block)
    return blocks

