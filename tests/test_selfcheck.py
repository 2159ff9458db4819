"""The self-verification runner and its CLI wiring."""

import contextlib
import io
import json

import pytest

from quatca.cli import main


@pytest.fixture(scope="module")
def cli_run():
    # One run of every suite, through the CLI, shared by the tests below:
    # the exit code and the JSON payload carrying `selfcheck.run_all`'s report.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "selfcheck", "--seed", "99"])
    return code, json.loads(out.getvalue())["payload"]


def test_run_all_reports_every_suite(cli_run):
    _, report = cli_run
    assert report["ok"] is True
    names = {suite["name"] for suite in report["suites"]}
    assert {
        "quaternion-ring-laws",
        "product-formula",
        "remainder-law",
        "independence-criterion-vs-rank",
        "degree-criterion-and-symmetry",
        "eigen-tuple-extraction",
        "honest-failure-paths",
        "print-parse-round-trip",
    } <= names
    for suite in report["suites"]:
        assert suite["failed"] == 0
        assert suite["passed"] > 0


def test_cli_selfcheck_exit_code_and_shape(cli_run):
    code, payload = cli_run
    assert code == 0
    assert payload["ok"] is True
    assert all(suite["failed"] == 0 for suite in payload["suites"])
