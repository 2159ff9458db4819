"""Answer gate: the benchmark's answers at fixed seeds, pinned by hash.

A workload's pin is the first 16 hex digits of the sha256 of the repr of
the list of `Workload.plain(call())` over its calls on
`gen.generate(workload, seed, n)`, with n = 20 blocks for `queries` and
`roots` and 10 for `certificates`.  A `selfcheck` pin is the same digest
of the stdout of `quatca --json selfcheck --seed s`.  A change that alters
answers on purpose re-pins and says which answers moved and why; a change
to the benchmark's generators re-pins too.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import quatca
from quatca import cli

BLOCKS = {"queries": 20, "roots": 20, "certificates": 10}
PINS = {
    ("queries", 1): "fc3a6d30df2acdea",
    ("queries", 2): "024972f5524b21e2",
    ("queries", 3): "54b4674d7489ce68",
    ("roots", 1): "50e0de8d90d607c5",
    ("roots", 2): "4dd87de162c36beb",
    ("roots", 3): "2fda0734731e1767",
    ("certificates", 1): "018af36cf7a80263",
    ("certificates", 2): "877e2903e649cac5",
    ("certificates", 3): "9ec012dd52f02d08",
    ("selfcheck", 1): "1bae90680c0e791e",
    ("selfcheck", 2): "8b3921e40e72888b",
    ("selfcheck", 3): "025bb7b23ff8ccbc",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("workload, seed", [key for key in PINS if key[0] in BLOCKS])
def test_workload_answers_match_their_pins(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import gen
    from perfbench.workloads import WORKLOADS

    runs = WORKLOADS[workload](quatca, gen.generate(workload, seed, BLOCKS[workload]), str(tmp_path))
    assert _digest(repr([runs.plain(call()) for call in runs.calls])) == PINS[workload, seed]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selfcheck_answers_match_their_pins(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", "selfcheck", "--seed", str(seed)]) == 0
    assert _digest(out.getvalue()) == PINS["selfcheck", seed]
