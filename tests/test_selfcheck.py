"""The self-verification runner and its CLI wiring."""

import contextlib
import io
import json

import pytest

from quatca import selfcheck
from quatca.cli import main

SUITES = [
    ("quaternion-ring-laws", 200),
    ("centralizer-descriptors", 200),
    ("conjugator-witness", 200),
    ("product-formula", 200),
    ("remainder-law", 200),
    ("gcrd-lclm-degree-identity", 60),
    ("root-class-inequality", 60),
    ("wedderburn-root-space-equality", 60),
    ("independence-criterion-vs-rank", 200),
    ("degree-criterion-and-symmetry", 200),
    ("point-reduction-reconstruction", 60),
    ("eigen-tuple-extraction", 25),
    ("membership-certificates", 10),
    ("honest-failure-paths", 2),
    ("print-parse-round-trip", 200),
]


def run_cli_selfcheck(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "selfcheck", "--seed", str(seed)])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def cli_run():
    # One run of every suite, through the CLI, shared by the tests below:
    # the exit code and the JSON payload carrying `selfcheck.run_all`'s report.
    code, report = run_cli_selfcheck(99)
    return code, report["payload"]


def test_run_all_reports_every_suite(cli_run):
    _, report = cli_run
    assert report["ok"] is True
    assert [(s["name"], s["passed"] + s["failed"]) for s in report["suites"]] == SUITES
    for suite in report["suites"]:
        assert suite["failed"] == 0


def test_cli_selfcheck_exit_code_and_shape(cli_run):
    code, payload = cli_run
    assert code == 0
    assert payload["ok"] is True
    assert all(suite["failed"] == 0 for suite in payload["suites"])


def test_failing_check_is_counted(monkeypatch):
    # A conjugator search that never finds a witness fails exactly the
    # instances whose pair shares a conjugacy class, and no other suite.
    monkeypatch.setattr(selfcheck, "find_conjugator", lambda a, b: None)
    report = selfcheck.run_all(7)
    assert report["ok"] is False
    counts = {s["name"]: (s["passed"], s["failed"]) for s in report["suites"]}
    assert counts.pop("conjugator-witness") == (98, 102)
    assert all(failed == 0 for _, failed in counts.values())

    code, cli_report = run_cli_selfcheck(7)
    assert code == 3
    assert cli_report["status"] == "error"
    assert cli_report["payload"] == report
