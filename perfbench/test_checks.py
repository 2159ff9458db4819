"""Each workload's checker must count a deliberately wrong answer as failed.

Run with:  python3 -m pytest perfbench/test_checks.py -q
"""

import json
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402
import quatca  # noqa: E402
import quatca.cli  # noqa: E402,F401

from perfbench import gen  # noqa: E402
from perfbench.run import Run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def first_failures(workload, tmp_path, corrupt=None, kind=None):
    """Run one block, optionally corrupting the first instance of `kind`;
    return (attempted, failed) as the benchmark counts them."""
    wl = WORKLOADS[workload](quatca, gen.generate(workload, 7, nblocks=1), str(tmp_path))
    if corrupt:
        idx = next(k for k, inst in enumerate(wl.instances) if inst["kind"] == kind)
        honest = wl.calls[idx]
        wl.calls[idx] = lambda: corrupt(honest())
    run = Run(wl)
    run.execute([0])
    attempted, failed, _ = run.tallies(run.check())
    return attempted, failed


def perturb_root(raw):
    classes, status, spaces, members = raw
    k = next(k for k, c in enumerate(classes) if isinstance(c, quatca.Isolated))
    classes = list(classes)
    classes[k] = quatca.Isolated(classes[k].a + quatca.Quat(0, Fraction(1, 3)))
    return classes, status, spaces, members


def change_cofactor(raw):
    rows = [list(row) for row in raw.cofactors]
    rows[0][0] = rows[0][0] + quatca.MPoly.constant(quatca.Quat(0, 0, 1), rows[0][0].nvars)
    return quatca.RabinowitschCertificate(raw.N, tuple(tuple(row) for row in rows))


def wrong_eigenvalue(raw):
    code, text = raw
    report = json.loads(text)
    component = report["payload"]["eigen"]["point"]["components"][0]
    component["w"] = str(Fraction(component["w"]) + 1)
    return code, json.dumps(report)


@pytest.mark.parametrize("workload", ["queries", "roots", "certificates"])
def test_honest_answers_pass(workload, tmp_path):
    attempted, failed = first_failures(workload, tmp_path)
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("workload, kind, corrupt", [
    ("roots", "split-int", perturb_root),
    ("certificates", "3var-N1d1", change_cofactor),
    ("queries", "eigen", wrong_eigenvalue),
])
def test_wrong_answer_counts_as_failed(workload, kind, corrupt, tmp_path):
    _, failed = first_failures(workload, tmp_path, corrupt, kind)
    assert failed == 1
