"""Plain rational-quaternion arithmetic owned by the benchmark.

Instances are generated and answers are checked with this module, never
with quatca's own types, so a change to `quatca.Quat` or `quatca.randgen`
can neither alter the inputs nor hide a wrong answer.

A quaternion is a 4-tuple of `Fraction` over the basis (1, i, j, k).  A
one-variable polynomial is a list of quaternions, low degree first.  A
multivariate polynomial is a dict from exponent tuples to quaternions.
"""

from __future__ import annotations

from fractions import Fraction

Quat = tuple[Fraction, Fraction, Fraction, Fraction]

_0 = Fraction(0)
ZERO: Quat = (_0, _0, _0, _0)
ONE: Quat = (Fraction(1), _0, _0, _0)


def q(w=0, x=0, y=0, z=0) -> Quat:
    return (Fraction(w), Fraction(x), Fraction(y), Fraction(z))


def qadd(a: Quat, b: Quat) -> Quat:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def qsub(a: Quat, b: Quat) -> Quat:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def qneg(a: Quat) -> Quat:
    return (-a[0], -a[1], -a[2], -a[3])


def qscale(a: Quat, r) -> Quat:
    return (a[0] * r, a[1] * r, a[2] * r, a[3] * r)


def qmul(a: Quat, b: Quat) -> Quat:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qconj(a: Quat) -> Quat:
    return (a[0], -a[1], -a[2], -a[3])


def qnorm(a: Quat) -> Fraction:
    return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def qinv(a: Quat) -> Quat:
    return qscale(qconj(a), 1 / qnorm(a))


def is_zero(a: Quat) -> bool:
    return not any(a)


def is_central(a: Quat) -> bool:
    return not (a[1] or a[2] or a[3])


def commute(a: Quat, b: Quat) -> bool:
    return qmul(a, b) == qmul(b, a)


# -- one variable ------------------------------------------------------------

def ptrim(p: list[Quat]) -> list[Quat]:
    p = list(p)
    while p and is_zero(p[-1]):
        p.pop()
    return p


def pmul(p: list[Quat], r: list[Quat]) -> list[Quat]:
    if not p or not r:
        return []
    out = [ZERO] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] = qadd(out[i + j], qmul(a, b))
    return ptrim(out)


def linear(a: Quat) -> list[Quat]:
    """x - a."""
    return [qneg(a), ONE]


def central(coeffs) -> list[Quat]:
    return [q(c) for c in coeffs]


def eval_left(p: list[Quat], a: Quat) -> Quat:
    """sum c_k a^k with coefficients left of the powers."""
    acc = ZERO
    for c in reversed(p):
        acc = qadd(qmul(acc, a), c)
    return acc


def eval_right(p: list[Quat], a: Quat) -> Quat:
    """sum a^k c_k with the powers left of the coefficients."""
    acc = ZERO
    for c in reversed(p):
        acc = qadd(qmul(a, acc), c)
    return acc


def companion(p: list[Quat]) -> list[Fraction]:
    """Rational coefficients of p times its coefficient-conjugate."""
    prod = pmul(p, [qconj(c) for c in p])
    if not all(is_central(c) for c in prod):
        raise ValueError("companion product is not central")
    return [c[0] for c in prod]


def central_rem(p: list[Quat], d: list[Fraction]) -> list[Quat]:
    """Remainder of p modulo a monic central polynomial d."""
    rem = list(p)
    dd = len(d) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        f = rem[k]
        if is_zero(f):
            continue
        for idx, dc in enumerate(d):
            rem[k - dd + idx] = qsub(rem[k - dd + idx], qscale(f, dc))
    return ptrim(rem[:dd])


# -- several variables ---------------------------------------------------------

def madd(p: dict, r: dict) -> dict:
    out = dict(p)
    for e, c in r.items():
        s = qadd(out.get(e, ZERO), c)
        if is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def mmul(p: dict, r: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = qadd(out.get(e, ZERO), qmul(c1, c2))
    return {e: c for e, c in out.items() if not is_zero(c)}


def mconst(c: Quat, nvars: int) -> dict:
    return {} if is_zero(c) else {(0,) * nvars: c}


def point_gens(point: list[Quat]) -> list[dict]:
    """Generators x_i - a_i of the point ideal."""
    n = len(point)
    gens = []
    for i, a in enumerate(point):
        var = tuple(1 if t == i else 0 for t in range(n))
        gens.append(madd({var: ONE}, mconst(qneg(a), n)))
    return gens


def meval(p: dict, point: list[Quat]) -> Quat:
    """Left evaluation at a point with pairwise commuting components."""
    total = ZERO
    for exps, c in p.items():
        value = c
        for a, e in zip(point, exps):
            for _ in range(e):
                value = qmul(value, a)
        total = qadd(total, value)
    return total


# -- text and JSON in quatca's grammar ------------------------------------------

def quat_text(a: Quat) -> str:
    parts = []
    for value, unit in zip(a, ("", "i", "j", "k")):
        if value:
            body = f"{abs(value)}{unit}"
            parts.append(("-" if value < 0 else "+") + body)
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


def upoly_text(p: list[Quat]) -> str:
    terms = []
    for k, c in enumerate(p):
        if is_zero(c):
            continue
        power = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        terms.append(f"({quat_text(c)}){power}")
    return " + ".join(reversed(terms)) if terms else "0"


def mpoly_text(p: dict) -> str:
    terms = []
    for exps, c in sorted(p.items()):
        mono = "".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        terms.append(f"({quat_text(c)}){mono}")
    return " + ".join(terms) if terms else "0"


def quat_json(a: Quat) -> dict:
    return {key: str(v) for key, v in zip("wxyz", a)}


def quat_from_json(obj: dict) -> Quat:
    return tuple(Fraction(obj[key]) for key in "wxyz")


def upoly_from_json(items: list) -> list[Quat]:
    return ptrim([quat_from_json(o) for o in items])


def mpoly_from_json(obj: dict) -> dict:
    out: dict = {}
    for item in obj["terms"]:
        out = madd(out, {tuple(item["exps"]): quat_from_json(item["coeff"])})
    return out
