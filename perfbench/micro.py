"""Fixed per-layer micro-cases, reported by the traced run and never gating.

They give a per-operation cost for the scalar, elimination and polynomial
layers that does not depend on a workload's traffic mix.  Inputs are fixed
(not drawn from `--seed`), so every run times the same cases.
"""

from __future__ import annotations

import statistics
from fractions import Fraction as F
from random import Random
from time import perf_counter

from . import gen


def _per_call(fn, number, repeat=5) -> float:
    samples = []
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - start) / number)
    return statistics.median(samples)


def _captured_system(qc, fn):
    """The largest (rows, ncols) that `fn` hands to linalg.rref."""
    seen = []
    original = qc.linalg.rref

    def capture(rows, ncols):
        seen.append((rows, ncols))
        return original(rows, ncols)

    qc.linalg.rref = capture
    try:
        fn()
    finally:
        qc.linalg.rref = original
    return max(seen, key=lambda s: len(s[0]) * len(s[0][0]))


def _upoly(qc, rng, degree):
    return qc.UPoly([qc.Quat(*gen.quat(rng, 3, (1, 2))) for _ in range(degree + 1)])


def micro_metrics(qc) -> dict[str, tuple[float, str]]:
    rng = Random("micro")
    a = qc.Quat(F(1, 2), F(-2, 3), F(3, 4), F(5, 6))
    b = qc.Quat(F(-3, 5), F(1, 7), F(2), F(-1, 3))
    out = {
        "micro.quat_mul_us": (_per_call(lambda: a * b, 2000) * 1e6, "us"),
        "micro.quat_inverse_us": (_per_call(a.inverse, 2000) * 1e6, "us"),
        "micro.quat_norm_us": (_per_call(a.norm, 2000) * 1e6, "us"),
    }

    vectors = [qc.Quat(*gen.quat(rng, 3, (1, 2))) for _ in range(3)]
    solve_4xk = _captured_system(
        qc, lambda: qc.left_linear_solve(vectors, a, qc.Centralizer.full())
    )
    lclm_block = _captured_system(qc, lambda: qc.lclm(_upoly(qc, rng, 2), _upoly(qc, rng, 2)))
    inst = gen.cert_instance(rng, 2, 1, 2, kind="found")
    ideal = qc.point_ideal(qc.CommutingPoint([qc.Quat(*c) for c in inst["point"]]))
    p = qc.MPoly(2, {e: qc.Quat(*c) for e, c in inst["p"].items()})
    cert_system = _captured_system(
        qc, lambda: qc.rabinowitsch_check(ideal, p, qc.Quat(*inst["a"]), 1, 2)
    )
    for name, (rows, ncols), number in (
        ("4xk", solve_4xk, 200), ("lclm", lclm_block, 20), ("cert", cert_system, 1),
    ):
        secs = _per_call(lambda: qc.linalg.rref(rows, ncols), number, repeat=3)
        out[f"micro.rref_{name}_ms"] = (secs * 1e3, "ms")

    for degree in (2, 4, 8):
        num, den = _upoly(qc, rng, degree), _upoly(qc, rng, degree // 2)
        out[f"micro.divmod_d{degree}_us"] = (_per_call(lambda: num.divmod_right(den), 200) * 1e6, "us")
        p1, p2 = _upoly(qc, rng, degree // 2), _upoly(qc, rng, degree // 2)
        out[f"micro.lclm_d{degree}_ms"] = (_per_call(lambda: qc.lclm(p1, p2), 3, repeat=3) * 1e3, "ms")
    return out
