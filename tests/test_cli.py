"""CLI dispatch, report shapes, and exit codes."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import argparse

import pytest

from quatca import cli, linalg, mpoly, selfcheck, serde
from quatca.cli import main
from quatca.errors import InternalError
from quatca.modules import ModulePresentation
from quatca.scalars import I, J, ONE, Quat, ZERO


NONCOMMUTING_MODULE = (
    '{"m": 1, "mats": [[[{"w": "0", "x": "1", "y": "0", "z": "0"}]], '
    '[[{"w": "0", "x": "0", "y": "1", "z": "0"}]]]}'
)
DEEP_MODULE = "[" * 100_000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out) if out else None, err


class TestReports:
    def test_minpoly_example(self, capsys):
        code, report, _ = run_json(capsys, "minpoly", "--element", "j", "--over", "i")
        assert code == 0
        assert report["status"] == "ok"
        assert report["payload"]["poly"] == "x^2 + 1"
        assert report["provenance"]

    def test_degree_example(self, capsys):
        code, report, _ = run_json(capsys, "degree", "--a", "i", "--b", "j")
        assert code == 0
        assert report["payload"]["left_degree"] == 2

    def test_eval_sides(self, capsys):
        code, report, _ = run_json(
            capsys, "eval", "--poly", "x^2 - (i+j)x + k", "--at", "j"
        )
        assert code == 0 and report["payload"]["value"] == "0"
        code, report, _ = run_json(
            capsys, "eval", "--poly", "x^2 - (i+j)x + k", "--at", "i", "--side", "right"
        )
        assert code == 0 and report["payload"]["value"] == "0"

    def test_roots_possibly_incomplete_is_a_domain_answer(self, capsys):
        code, report, _ = run_json(capsys, "roots", "--poly", "x^2 - 2")
        assert code == 0
        assert report["status"] == "possibly-incomplete"
        assert report["payload"]["classes"] == []

    def test_roots_sphere(self, capsys):
        code, report, _ = run_json(capsys, "roots", "--poly", "x^2 + 1")
        assert report["payload"]["classes"] == [{"kind": "sphere", "t": "0", "n": "1"}]

    def test_roots_class_order(self, capsys):
        # Rational roots first, ascending, then the classes by (t, n)
        # ascending whatever their kind: 1/2, the point i + j of the class
        # x^2 + 2, then the sphere x^2 - 2x + 5.
        code, report, _ = run_json(
            capsys, "roots", "--poly", "(x - i - j)(2x - 1)(x^2 - 2x + 5)"
        )
        assert code == 0 and report["status"] == "ok"
        assert report["payload"]["classes"] == [
            {"kind": "isolated", "a": {"w": "1/2", "x": "0", "y": "0", "z": "0"}},
            {"kind": "isolated", "a": {"w": "0", "x": "1", "y": "1", "z": "0"}},
            {"kind": "sphere", "t": "2", "n": "5"},
        ]

    def test_wedderburn(self, capsys):
        code, report, _ = run_json(
            capsys, "wedderburn", "--element", "j", "--generators", "i"
        )
        assert code == 0 and report["payload"]["poly"] == "x^2 + 1"

    def test_espace(self, capsys):
        code, report, _ = run_json(
            capsys, "espace", "--poly", "x^2 + 1", "--root", "i"
        )
        assert code == 0 and report["payload"]["dim"] == 2

    def test_indep(self, capsys):
        code, report, _ = run_json(capsys, "indep", "--a", "i", "--bs", "1,j")
        assert code == 0 and report["payload"]["independent"] is True
        code, report, _ = run_json(capsys, "indep", "--a", "i", "--bs", "1,1+i")
        assert report["payload"]["independent"] is False

    def test_witness(self, capsys):
        code, report, _ = run_json(capsys, "witness", "--a", "1+i", "--b", "k")
        assert code == 0
        assert report["payload"]["coefficients"] == ["2", "-2"]

    def test_reduce(self, capsys):
        code, report, _ = run_json(
            capsys, "reduce", "--poly", "x1x2", "--point", "i; 1+i"
        )
        assert code == 0
        assert report["payload"]["remainder"] == "-1 + i"
        assert report["payload"]["in_point_ideal"] is False

    def test_rabinowitsch_search(self, capsys):
        code, report, _ = run_json(
            capsys,
            "rabinowitsch",
            "--ideal", "(x-i)^2",
            "--p", "x-i",
            "--a", "j",
            "--maxN", "5",
            "--degbound", "2",
        )
        assert code == 0 and report["status"] == "ok"
        # the full sum admits a certificate already at the first power; the
        # returned cofactors reconstruct exactly (checked kernel-side)
        assert report["payload"]["N"] == 1

    def test_rabinowitsch_search_without_a_certificate_at_any_power(self, capsys):
        # p = 1 does not vanish at i.  In one variable no least member power
        # exceeds max(1, deg d_0) = 1, so the search answers at once for
        # every power instead of trying a thousand.
        start = time.perf_counter()
        code, report, _ = run_json(
            capsys, "rabinowitsch", "--ideal", "x - i", "--p", "1", "--a", "1", "--maxN", "1000", "--degbound", "1",
        )
        assert time.perf_counter() - start < 10
        assert code == 0 and report["status"] == "not-found"
        assert report["payload"] == {"maxN": 1000, "degbound": 1, "every_power": True}
        # With a = 1 the flagship's least member power is 2, above --maxN 1.
        code, report, _ = run_json(
            capsys, "rabinowitsch", "--ideal", "(x-i)^2", "--p", "x-i", "--a", "1", "--maxN", "1", "--degbound", "2",
        )
        assert code == 0 and report["status"] == "not-found"
        assert report["payload"] == {"maxN": 1, "degbound": 2, "every_power": False}

    def test_rabinowitsch_search_in_two_variables_bisects(self, capsys, monkeypatch):
        # p(i, 2i) = 1 + i, and with a = 1 every power is a non-member.  In
        # several variables the search starts at 1 and checks --maxN once,
        # where a loop over every power took 40 checks.
        checked = []
        check = mpoly.rabinowitsch_check
        monkeypatch.setattr(mpoly, "rabinowitsch_check", lambda *args: checked.append(args[3]) or check(*args))
        code, report, _ = run_json(
            capsys, "rabinowitsch", "--nvars", "2", "--ideal", "x1 - i", "--ideal", "x2 - 2i",
            "--p", "x1 + 1", "--a", "1", "--maxN", "40", "--degbound", "1",
        )
        assert code == 0 and report["status"] == "not-found"
        assert report["payload"] == {"maxN": 40, "degbound": 1, "every_power": False}
        assert checked == [1, 40]

    def test_rabinowitsch_search_bisects_into_the_lower_half(self, capsys, monkeypatch):
        # No certificate at 1 or 2 within degree 2, one from 3 on: after 1
        # and 4 the search checks 2, moves its lower end up, and checks 3.
        request = [
            "rabinowitsch", "--ideal", "x^4 + (2i + 2j - 4k)x^3 + (-6 + 2i + 2j + 2k)x^2 - 3",
            "--p", "x + (-2 + i + 2j + k)", "--a", "-i - j - 2k", "--degbound", "2",
        ]
        found = [run_json(capsys, *request, "--N", str(N))[1]["status"] for N in range(1, 5)]
        assert found == ["not-found", "not-found", "ok", "ok"]
        checked = []
        check = mpoly.rabinowitsch_check
        monkeypatch.setattr(mpoly, "rabinowitsch_check", lambda *args: checked.append(args[3]) or check(*args))
        code, report, _ = run_json(capsys, *request, "--maxN", "4")
        assert code == 0 and report["status"] == "ok" and report["payload"]["N"] == 3
        assert checked == [1, 4, 2, 3]

    def test_a_certificate_system_past_its_bound_is_refused_at_once(self):
        # One-shot: the estimate precedes (j(x - i))^1000 and its bases.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        request = [sys.executable, "-m", "quatca", "rabinowitsch", "--ideal", "(x-i)^2", "--p", "x-i", "--a", "j"]
        start = time.perf_counter()
        proc = subprocess.run([*request, "--maxN", "1000", "--degbound", "0"], capture_output=True, text=True, env=env)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: certificate system of up to") and "the bound of 16000" in proc.stderr
        proc = subprocess.run([*request, "--maxN", "40", "--degbound", "0"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stdout.startswith("status: not-found\n")

    def test_rabinowitsch_single_power_not_found(self, capsys):
        code, report, _ = run_json(
            capsys,
            "rabinowitsch",
            "--ideal", "(x-i)^2",
            "--p", "x-i",
            "--a", "j",
            "--N", "2",
            "--degbound", "0",
        )
        assert code == 0
        assert report["status"] == "not-found"

    def test_rabinowitsch_lifts_a_lower_power_in_two_variables(self, capsys):
        # The two-variable flagship analog: ((x1 - i)^2, x2) holds (j(x1 - i))^3,
        # whose lift certifies the fifth power.
        code, report, _ = run_json(
            capsys, "rabinowitsch", "--nvars", "2", "--ideal", "(x1 - i)^2", "--ideal", "x2",
            "--p", "x1 - i", "--a", "j", "--N", "5", "--degbound", "2",
        )
        assert code == 0 and report["status"] == "ok"
        assert report["payload"]["N"] == 5

    @pytest.mark.parametrize("degbound", ["10", "20"])
    def test_a_high_degree_bound_costs_only_the_least_degree(self, capsys, degbound):
        # p = (x1 - i)x2 + (x3 - 3i) lies in the point ideal, so j*p lifts
        # with cofactors of degree 1, the first degree tried.  Solved at
        # the degree bound instead, the lift system would have 3,432
        # rational columns at 10 and 21,252 at 20.
        start = time.perf_counter()
        code, report, _ = run_json(
            capsys, "rabinowitsch", "--nvars", "3", "--ideal", "x1 - i", "--ideal", "x2 - 2i",
            "--ideal", "x3 - 3i", "--p", "x1x2 - ix2 + x3 - 3i", "--a", "j", "--N", "2",
            "--degbound", degbound,
        )
        assert time.perf_counter() - start < 10
        assert code == 0 and report["status"] == "ok"

    def test_generators_do_not_carry_over_between_calls(self, capsys):
        # The parser is built once per process.  With x - i in the ideal,
        # j(x - i) is a member at degree bound 0; the next call names only
        # (x - i)^2, which has no such certificate, so a leftover x - i
        # from the first call would turn its answer into "ok".
        common = ("--p", "x-i", "--a", "j", "--degbound", "0")
        code, report, _ = run_json(capsys, "rabinowitsch", "--ideal", "x-i", "--N", "1", *common)
        assert code == 0 and report["status"] == "ok"
        code, report, _ = run_json(capsys, "rabinowitsch", "--ideal", "(x-i)^2", "--N", "2", *common)
        assert code == 0 and report["status"] == "not-found"

    @pytest.mark.parametrize(
        "a, degbound, status",
        [("1", "0", "not-found"), ("1", "1", "not-found"), ("1", "8", "not-found"),
         ("j", "0", "not-found"), ("j", "1", "ok"), ("j", "8", "ok")],
    )
    def test_two_variable_membership_at_a_commuting_point(self, capsys, monkeypatch, a, degbound, status):
        # p(i, 2i) = 1 + i, yet a = j makes I + I*j(x1 + 1) the whole ring.
        # With a = 1 every g_j*(x1 + 1) lies in I, so the left Groebner basis
        # shows (x1 + 1) outside the sum at every degree bound, and no
        # rational system is built.
        systems = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda rows, ncols: systems.append(ncols) or rref(rows, ncols))
        code, report, _ = run_json(
            capsys, "rabinowitsch", "--nvars", "2", "--ideal", "x1 - i", "--ideal", "x2 - 2i",
            "--p", "x1 + 1", "--N", "1", "--a", a, "--degbound", degbound,
        )
        assert code == 0 and report["status"] == status
        assert bool(systems) == (a == "j")


class TestEigenCommand:
    def test_module_from_file(self, capsys, tmp_path):
        module = ModulePresentation(2, [[[I, ZERO], [ZERO, J]]])
        path = tmp_path / "module.json"
        path.write_text(json.dumps(serde.module_to_json(module)))
        code, report, _ = run_json(capsys, "eigen", "--module", str(path))
        assert code == 0 and report["status"] == "ok"
        point = report["payload"]["eigen"]["point"]["components"]
        assert point in ([serde.quat_to_json(I)], [serde.quat_to_json(J)])

    def test_root_not_found_reports_polynomial(self, capsys, tmp_path):
        module = ModulePresentation(2, [[[ZERO, Quat(2)], [ONE, ZERO]]])
        path = tmp_path / "module.json"
        path.write_text(json.dumps(serde.module_to_json(module)))
        code, report, _ = run_json(capsys, "eigen", "--module", str(path))
        assert code == 0
        assert report["status"] == "not-found"
        assert report["payload"]["root_not_found"]["poly_text"] == "x^2 - 2"

    def test_a_later_root_class_is_tried(self, capsys, tmp_path):
        # Every standard seed first takes A1's root 1 into a block where A2
        # has only the roots +-sqrt(2); the root 3 leads to the eigenvector.
        mats = ([[3, 2, -2], [2, 3, -2], [2, 2, -1]], [[4, 5, -4], [5, 3, -3], [4, 3, -2]])
        module = ModulePresentation(3, [[[Quat(v) for v in row] for row in mat] for mat in mats])
        path = tmp_path / "module.json"
        path.write_text(json.dumps(serde.module_to_json(module)))
        code, report, _ = run_json(capsys, "eigen", "--module", str(path))
        assert code == 0 and report["status"] == "ok"
        assert report["payload"]["eigen"]["point"]["components"] == [
            serde.quat_to_json(Quat(3)), serde.quat_to_json(Quat(5))
        ]


class TestLongIntegers:
    # Integers past the interpreter's default 4,300-digit int<->str cap are
    # read and printed exactly, and the caller's cap is left as it was.

    @pytest.fixture(autouse=True)
    def digit_cap_is_restored(self):
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = cap()
        yield
        assert cap() == before

    def test_long_literal_is_parsed(self, capsys):
        big = "7" * 4400
        code, out, err = run(capsys, "eval", "--poly", "x", "--at", big)
        assert code == 0 and err == ""
        assert f"value: {big}\n" in out

    def test_long_option_value_is_parsed(self, capsys):
        big = "1" * 4400
        code, out, err = run(capsys, "--json", "selfcheck", "--seed", big)
        assert code == 0 and err == ""
        assert f'"seed": {big},' in out

    def test_long_rational_in_module_file(self, capsys, tmp_path):
        big = "7" * 4400
        entry = {"w": big, "x": "0", "y": "0", "z": "0"}
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"m": 1, "mats": [[[entry]]]}))
        code, report, _ = run_json(capsys, "eigen", "--module", str(path))
        assert code == 0 and report["status"] == "ok"
        assert report["payload"]["eigen"]["point"]["components"] == [entry]

    def test_long_result_is_printed(self, capsys):
        # (10^2200 + 1)^2 = 10^4400 + 2 * 10^2200 + 1
        at = "1" + "0" * 2199 + "1"
        square = "1" + "0" * 2199 + "2" + "0" * 2199 + "1"
        code, report, _ = run_json(capsys, "eval", "--poly", "x^2", "--at", at)
        assert code == 0
        assert report["payload"]["value"] == square
        assert report["payload"]["value_json"] == {"w": square, "x": "0", "y": "0", "z": "0"}

    def test_high_degree_evaluation_reduces_once(self, capsys):
        # The numerators of a^k grow with k at a = (3 + 4j)/5.  Reducing
        # after every Horner step made N = 20,000 take about a minute; one
        # integer Horner sum reduced at the end takes under a second.
        start = time.perf_counter()
        code, report, _ = run_json(capsys, "eval", "--poly", "x^20000 + x - 3", "--at", "3/5 + 4/5j")
        elapsed = time.perf_counter() - start
        assert code == 0
        a = Quat(Fraction(3, 5), 0, Fraction(4, 5))
        with cli._exact_integers():
            expected = serde.quat_to_json(a**20000 + a - 3)
        assert report["payload"]["value_json"] == expected
        assert elapsed < 10


class TestExitCodes:
    @pytest.mark.parametrize(
        "body",
        [
            '{"mats": []}',
            '{"m": 1, "mats": [[["i"]]]}',
            "[1,2]",
            '{"m": "x", "mats": []}',
            '{"m": 1, "mats": 5}',
            '{"m": 1, "mats": [[[{"w": null, "x": "0", "y": "0", "z": "0"}]]]}',
            '{"m": 1, "mats": [[[{"w": 0.1, "x": "0", "y": "0", "z": "0"}]]]}',
            '{"m": 1, "mats": [[[{"w": true, "x": "0", "y": "0", "z": "0"}]]]}',
            '{"m": 1, "mats": [[[{"w": "1.5", "x": "0", "y": "0", "z": "0"}]]]}',
            '{"m": 1, "mats": [[[{"w": "1e1", "x": "0", "y": "0", "z": "0"}]]]}',
            '{"m": 1, "mats": [[[{"w": " 3", "x": "0", "y": "0", "z": "0"}]]]}',
            '{"m": 1, "mats": [[[{"w": "1_0", "x": "0", "y": "0", "z": "0"}]]]}',
            NONCOMMUTING_MODULE,
            pytest.param(DEEP_MODULE, id="nested-100000-deep"),
        ],
    )
    def test_malformed_module_is_usage(self, capsys, tmp_path, body):
        path = tmp_path / "module.json"
        path.write_text(body)
        code, out, err = run(capsys, "--json", "eigen", "--module", str(path))
        assert code == 2
        assert "error:" in err
        if body == NONCOMMUTING_MODULE:
            assert err == "error: actions 1 and 2 do not commute\n"

    def test_rational_actions_that_do_not_commute_are_named(self, capsys, tmp_path):
        # A, B and A^2 over mixed denominators: B commutes with neither.
        def q(w="0", x="0", y="0", z="0"):
            return {"w": w, "x": x, "y": y, "z": z}

        a = [[q(x="1"), q(w="1/2")], [q(), q(y="1")]]
        b = [[q(z="1"), q()], [q(w="1/3"), q(w="1")]]
        a_squared = [[q(w="-1"), q(x="1/2", y="1/2")], [q(), q(w="-1")]]
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"m": 2, "mats": [a, b, a_squared]}))
        code, out, err = run(capsys, "--json", "eigen", "--module", str(path))
        assert code == 2 and out == ""
        assert err == "error: actions 1 and 2 do not commute; actions 2 and 3 do not commute\n"

    def test_deeply_nested_module_on_stdin_is_usage(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP_MODULE))
        code, out, err = run(capsys, "--json", "eigen", "--module", "-")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_parse_error_is_usage(self, capsys):
        code, out, err = run(capsys, "eval", "--poly", "x^2 $", "--at", "i")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "poly, at",
        [("x\u00b2", "1"), ("x", "\u0663i"), ("(" * 400 + "x" + ")" * 400, "1")],
        ids=["superscript-two", "arabic-indic-three", "nested-400-deep"],
    )
    def test_non_ascii_digits_and_deep_nesting_are_usage(self, capsys, poly, at):
        code, out, err = run(capsys, "eval", "--poly", poly, "--at", at)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (("eval", "--poly", "x^1000000000", "--at", "i"), "the bound of 1000000 for"),
            (("roots", "--poly", "x^1000000000"), "the bound of 1000000 for"),
            (("espace", "--poly", "x^1000000000", "--root", "0"), "the bound of 1000000 for"),
            (("rabinowitsch", "--ideal", "x^1000000000", "--p", "x", "--a", "1"), "the bound of 1000000 for"),
            (("eval", "--poly", "(x - i)^1000000000", "--at", "i"), "the bound of 500 (at"),
            (("eval", "--poly", "x", "--at", "(1+2i)^1000000000"), "the bound of 100000 bits (at"),
            (("reduce", "--poly", "x1^10000", "--point", "1+2i"), "the bound of 2000 bits modulo"),
            (("reduce", "--poly", "(x1+x2+x3)^160", "--point", "i; i; i"), "the bound of 1000 (at"),
            (("reduce", "--poly", "(x1+x2+x3+x4)^16(x1+x2+x3+x4)^16", "--point", "i; i; i; i"), "the bound of 1000 (at"),
            (
                ("rabinowitsch", "--ideal", "(x-i)^2", "--p", "x-i", "--a", "j", "--maxN", "1000", "--degbound", "0"),
                "certificate system of up to 1004003 quaternion entries at cofactor degree 0, above the bound of 16000",
            ),
            (
                ("rabinowitsch", "--nvars", "2", "--ideal", "x1 - i", "--ideal", "x2 - 2i", "--p", "x1 + x2 + 1",
                 "--a", "1", "--maxN", "200"),
                "power (a*p)^200 of up to 20301 terms, above the bound of 1000",
            ),
        ],
        ids=[
            "eval", "roots", "espace", "rabinowitsch", "polynomial-power", "quaternion-power", "reduce", "terms",
            "product-terms", "certificate-system", "power-terms",
        ],
    )
    def test_oversized_input_is_usage(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error:") and bound in err

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--poly", "x", "--at", "i"), ("reduce", "--poly", "x1^1000", "--point", "1+2i")],
        ids=["short-report", "report-past-the-stdout-buffer"],
    )
    def test_closed_stdout_exits_without_a_traceback(self, argv):
        # The reader closes its end before the run starts, so the first write
        # fails: a short report's at the flush before exit, a long one's
        # (370 kB) within print.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quatca", "--json", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == b""

    def test_precondition_violation_is_usage(self, capsys):
        code, out, err = run(capsys, "espace", "--poly", "x^2 + 1", "--root", "1+j")
        assert code == 2

    def test_noncommuting_point_is_usage(self, capsys):
        code, out, err = run(capsys, "reduce", "--poly", "x1x2", "--point", "i; j")
        assert code == 2

    def test_zero_variables_is_usage(self, capsys):
        code, out, err = run(capsys, "reduce", "--poly", "x - i", "--point", "i", "--nvars", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bound", [("--maxN", "0"), ("--degbound", "-3")])
    def test_invalid_certificate_search_bound_is_usage(self, capsys, bound):
        code, out, err = run(
            capsys, "rabinowitsch", "--ideal", "x-i", "--p", "x-i", "--a", "1", *bound
        )
        assert code == 2
        assert "error" in err

    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file_is_usage(self, capsys):
        code, out, err = run(capsys, "eigen", "--module", "/nonexistent.json")
        assert code == 2

    def test_failing_selfcheck_is_internal(self, capsys, monkeypatch):
        failing = {"seed": 1, "ok": False, "suites": [{"name": "s", "passed": 0, "failed": 1}]}
        monkeypatch.setattr(selfcheck, "run_all", lambda seed: failing)
        code, report, _ = run_json(capsys, "selfcheck")
        assert code == 3
        assert report["status"] == "error" and report["payload"] == failing

    def test_internal_error_in_handler_is_internal(self, capsys, monkeypatch):
        def broken(b, gens):
            raise InternalError("planted fault")

        monkeypatch.setattr(cli, "wedderburn_lclm", broken)
        code, out, err = run(capsys, "wedderburn", "--element", "j", "--generators", "i")
        assert code == 3
        assert out == "" and "internal error: planted fault" in err

    def test_text_mode_default(self, capsys):
        code, out, err = run(capsys, "minpoly", "--element", "j", "--over", "i")
        assert code == 0
        assert "status: ok" in out and "x^2 + 1" in out

    def test_json_flag_before_subcommand(self, capsys):
        code, report, _ = run_json(capsys, "degree", "--a", "i", "--b", "j")
        assert code == 0 and report["payload"]["left_degree"] == 2


# The grammar's tokens, with a few integers; adjacent digits join into one
# rational, exponent or variable index, as they would in typed input.
_FUZZ_NUMBERS = ("0", "1", "2", "3", "12")
_FUZZ_TOKENS = (*_FUZZ_NUMBERS, "/", "i", "j", "k", "x", "x1", "x2", "+", "-", "*", "^", "(", ")", " ")


def _fuzz_text(rng, variables=("x",), depth=2) -> str:
    """A well-formed expression from the grammar's tokens in the given
    variables, or, one time in three, one with a token of the whole grammar
    inserted, dropped or replaced."""
    tokens = []

    def atom(depth):
        kind = rng.choice(["number", "unit"] + ["variable"] * bool(variables) + ["("] * (depth > 0))
        if kind == "number":
            tokens.append(rng.choice(_FUZZ_NUMBERS))
            if rng.random() < 0.3:
                tokens.extend(("/", rng.choice(_FUZZ_NUMBERS)))
        elif kind == "unit":
            tokens.append(rng.choice("ijk"))
        elif kind == "variable":
            tokens.append(rng.choice(variables))
        else:
            tokens.append("(")
            expression(depth - 1)
            tokens.append(")")
        if rng.random() < 0.2:
            tokens.extend(("^", rng.choice(_FUZZ_NUMBERS)))

    def expression(depth):
        if rng.random() < 0.3:
            tokens.append(rng.choice("+-"))
        for n in range(rng.randint(1, 3)):
            if n:
                tokens.append(rng.choice(("+", "-", " - ")))
            atom(depth)
            for _ in range(rng.randint(0, 2)):
                tokens.append(rng.choice(("", " ", "*")))
                atom(depth)

    expression(depth)
    if rng.random() < 1 / 3:
        at = rng.randrange(len(tokens) + 1)
        roll = rng.randrange(3)
        if roll == 0:
            tokens.insert(at, rng.choice(_FUZZ_TOKENS))
        elif at < len(tokens):
            tokens[at : at + 1] = [rng.choice(_FUZZ_TOKENS)] if roll == 1 else []
    return "".join(tokens)


def _fuzz_argv(rng) -> list[str]:
    """One request; every value is passed as `--option=value`, so a value
    that starts with `-` is not read as an option."""
    command = rng.choice(("eval", "roots", "reduce", "minpoly", "rabinowitsch"))

    def text(variables=("x",), depth=2):
        return _fuzz_text(rng, variables, depth)

    side = ["--side=right"] if rng.random() < 0.3 else []
    if command == "eval":
        return ["eval", f"--poly={text()}", f"--at={text(())}", *side]
    if command == "roots":
        return ["roots", f"--poly={text()}"]
    if command == "minpoly":
        element = text(())
        over = ",".join(text(()) for _ in range(rng.randint(1, 2)))
        return ["minpoly", f"--element={element}", f"--over={over}", *side]
    nvars = rng.randint(1, 2)
    variables = ("x", "x1", "x2")[: nvars + 1]
    if command == "reduce":
        point = "; ".join(text(()) for _ in range(nvars))
        return ["reduce", f"--poly={text(variables)}", f"--point={point}"]
    argv = ["rabinowitsch", *(f"--ideal={text(variables, 0)}" for _ in range(rng.randint(1, 2)))]
    argv += [f"--p={text(variables, 0)}", f"--a={text((), 0)}", *(["--nvars=2"] if nvars == 2 else [])]
    return argv + [f"{rng.choice(('--N', '--maxN'))}={rng.randint(0, 4)}", f"--degbound={rng.randint(0, 3)}"]


def _fuzz_argvs(seed: int, count: int) -> list[list[str]]:
    """count seeded requests of at most 80 characters in all."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        argv = _fuzz_argv(rng)
        if len(" ".join(argv)) <= 80:
            out.append(argv)
    return out


# The long request of seed 5: its coordinate rows have degree 180 and
# coefficients of up to 532 bits, and their central content, x, took more
# than 120 s by a remainder sequence.
_SEED_5_ROOTS = "-x*x+2/3^2 12^2 x-(k x+(xi^12)^12 (+k+x*x - j1/12^12)x)^12"


def _run_fuzz(capsys, seed: int) -> None:
    """Seeded requests of at most 80 characters, from the grammar's tokens,
    for the text subcommands: each answers (exit 0) or is refused (exit 2),
    never raises, and none takes long."""
    argvs = _fuzz_argvs(seed, 400)
    codes = Counter()
    start = time.perf_counter()
    for argv in argvs:
        begin = time.perf_counter()
        code, out, err = run(capsys, "--json", *argv)
        assert code in (0, 2), argv
        assert (out and not err) if code == 0 else (err.startswith("error:") and not out), argv
        assert time.perf_counter() - begin < 20, argv
        codes[argv[0], code] += 1
    assert time.perf_counter() - start < 120
    assert {command for command, code in codes if code == 0} == {
        "eval", "roots", "reduce", "minpoly", "rabinowitsch",
    }


class TestGrammarFuzz:
    def test_short_requests_answer_or_are_refused(self, capsys):
        _run_fuzz(capsys, 1)

    def test_short_requests_of_seed_5_answer_or_are_refused(self, capsys):
        assert ["roots", f"--poly={_SEED_5_ROOTS}"] in _fuzz_argvs(5, 400)
        _run_fuzz(capsys, 5)

    def test_the_long_central_content_request_answers(self, capsys):
        start = time.perf_counter()
        code, report, _ = run_json(capsys, "roots", "--poly", _SEED_5_ROOTS)
        assert time.perf_counter() - start < 20
        assert code == 0 and report["status"] == "possibly-incomplete"
        assert report["payload"]["classes"] == [{"kind": "isolated", "a": {"w": "0", "x": "0", "y": "0", "z": "0"}}]

    def test_a_root_search_past_the_degree_bound_is_refused(self, capsys):
        # The dense bound admits x^331213, whose root search did not finish;
        # a power of x costs linear time whatever its degree.
        start = time.perf_counter()
        code, out, err = run(capsys, "roots", "--poly", "-2^100 - x x^331212")
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        assert err == "error: degree 331213 without the power of x above the bound of 1000 for a root search\n"
        code, _, err = run(capsys, "roots", "--poly", "x^1002 + x")
        assert code == 2 and "degree 1001 without the power of x above the bound of 1000" in err
        code, report, _ = run_json(capsys, "roots", "--poly", "x^1001 + x")
        assert code == 0 and report["status"] == "possibly-incomplete"
        code, report, _ = run_json(capsys, "roots", "--poly", "x^100000 - 3x^99999")
        assert code == 0 and report["status"] == "ok"
        assert [c["a"]["w"] for c in report["payload"]["classes"]] == ["0", "3"]

    def test_sparse_high_degree_roots_answer_at_once(self, capsys):
        # The companion of x^400 + i is x^800 + 1: the prime 7 proves it
        # free of factors of degree <= 2 before any float runs.
        start = time.perf_counter()
        code, report, _ = run_json(capsys, "roots", "--poly", "x^400 + i")
        assert time.perf_counter() - start < 10
        assert code == 0 and report["status"] == "possibly-incomplete"
        assert report["payload"]["classes"] == []


_README = Path(cli.__file__).parents[2] / "README.md"


def _readme_argvs(module_path: str) -> list[list[str]]:
    """The README's CLI examples, with `module.json` replaced by a file."""
    lines = _README.read_text().split("## CLI", 1)[1].split("```")[1].splitlines()
    return [
        [module_path if word == "module.json" else word for word in shlex.split(line.split("#")[0])[1:]]
        for line in lines
        if line.startswith("quatca ")
    ]


@pytest.fixture
def module_path(tmp_path):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(serde.module_to_json(ModulePresentation(2, [[[I, ZERO], [ZERO, J]]]))))
    return str(path)


def _equals_form(argv: list[str]) -> list[str]:
    """argv with each `--opt value` pair joined as `--opt=value`."""
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _space_form(argv: list[str]) -> list[str]:
    """argv with each `--opt=value` split into `--opt value`."""
    return [part for word in argv for part in (word.split("=", 1) if word.startswith("--") else [word])]


class TestIndentEmitter:
    # `_dumps_indent2` writes what json.dumps(obj, indent=2) writes.

    def test_every_report_is_printed_as_json_would(self, capsys, monkeypatch, module_path):
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, as_json: reports.append(report) or emit(report, as_json))
        argvs = [["--json", *argv] for argv in _readme_argvs(module_path) + _fuzz_argvs(1, 400)]
        argvs.append(["--json", "selfcheck", "--seed", "1" * 4400])  # an int past the digit cap
        printed = 0
        for argv in argvs:
            count = len(reports)
            code, out, _ = run(capsys, *argv)
            if len(reports) > count:
                with cli._exact_integers():
                    assert out == json.dumps(reports[-1].to_json(), indent=2) + "\n", argv
                printed += 1
        assert printed > 150 and {type(r.payload["seed"]) for r in reports if "seed" in r.payload} == {int}

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
            [[], {}, [{"e": []}]],
            ("t", 1, (2, [3])),
            {"é中\U0001f600": "café   \U0001f600", "ctl\x00\x1f\t\n\"\\/": "\x7f\b\f\r"},
            {"flags": [True, False, None], "ints": [0, -1, -10**30, 10**30]},
        ],
        ids=["empty-dict", "empty-list", "nested-empties", "nested-list", "tuple", "non-ascii-and-control", "leaves"],
    )
    def test_edge_shapes(self, obj):
        assert cli._dumps_indent2(obj) == json.dumps(obj, indent=2)

    def test_long_int(self):
        with cli._exact_integers():
            obj = {"n": [-(10**4400) - 7]}
            assert cli._dumps_indent2(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("payload", [{"x": 0.5}, {"x": [1, float("nan")]}, {1: "int key"}])
    def test_other_types_take_json(self, capsys, payload):
        with pytest.raises(TypeError):
            cli._dumps_indent2(payload)
        cli._emit(cli.Report(cli.OK, payload, "p"), True)
        report = {"status": "ok", "payload": payload, "provenance": "p"}
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


def _argparse_only(capsys, monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_argv", lambda argv: None)
        return run(capsys, *argv)


class TestArgvReader:
    # `_read_argv` gives argparse's namespace on the requests it reads and
    # leaves every other request, with its message and exit code, to it.

    def test_namespace_equals_argparse(self, module_path):
        parser = cli.build_parser()
        argvs = _readme_argvs(module_path) + _fuzz_argvs(1, 400)
        fast = 0
        for argv in argvs:
            for form in (_equals_form(argv), _space_form(argv)):
                for full in (["--json", *form], [*form, "--json"], form):
                    args = cli._read_argv(full)
                    if args is None:
                        # only a separate value that starts with `-`
                        assert any(w.startswith("-") and not w.startswith("--") for w in full), full
                        continue
                    assert args == parser.parse_args(full), full
                    fast += 1
        assert fast > 4 * len(argvs)
        assert all(cli._read_argv(["--json", *_equals_form(argv)]) for argv in argvs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["roots", "-h"],
            ["--json", "roots", "--poly", "x", "--bogus", "1"],
            ["roots", "--pol=x^2 + 1"],
            ["--js", "roots", "--poly=x"],
            ["roots"],
            ["roots", "--poly", "x^2 - 2", "--poly", "x^2 + 1"],
            ["eval", "--poly", "x", "--at", "-1"],
            ["roots", "--json=1", "--poly", "x"],
            ["--json=", "roots", "--poly", "x"],
            ["reduce", "--poly", "x", "--point", "i", "--nvars", "x"],
            ["eval", "--poly", "x", "--at", "i", "--side", "up"],
            ["roots", "--", "--poly", "x"],
            ["roots", "--poly", "x", "stray"],
            ["frobnicate"],
            [],
        ],
    )
    def test_other_requests_are_argparse_s(self, capsys, monkeypatch, argv):
        assert cli._read_argv(argv) is None
        assert run(capsys, *argv) == _argparse_only(capsys, monkeypatch, argv)

    def test_a_lone_double_dash_value_is_argparse_s(self):
        # argparse strips `--` from `--poly=--` and stores [] as the value
        # (or keeps "--", by version); `main` refuses both.
        assert cli._read_argv(["roots", "--poly=--"]) is None
        assert cli.build_parser().parse_args(["roots", "--poly=--"]).poly in ([], "--")

    def test_every_option_written_with_a_lone_double_dash_is_usage(self, capsys, module_path):
        # Each request answers as written; with one option's value replaced
        # by `--opt=--` it exits 2 with one error line and no traceback.
        # Where argparse stores [], the line names the option; where it
        # keeps "--", the grammar, `int`, `open` or `choices` refuses it.
        probe = argparse.ArgumentParser()
        probe.add_argument("--v")
        stores_empty = probe.parse_args(["--v=--"]).v == []
        requests = {
            "eval": ["--poly=x", "--at=i", "--side=right"],
            "roots": ["--poly=x"],
            "minpoly": ["--element=j", "--over=i", "--side=right"],
            "wedderburn": ["--element=j", "--generators=i"],
            "espace": ["--poly=x^2 + 1", "--root=i"],
            "indep": ["--a=i", "--bs=1,j"],
            "degree": ["--a=i", "--b=j"],
            "witness": ["--a=i", "--b=j"],
            "reduce": ["--poly=x1", "--point=i", "--nvars=1"],
            "eigen": [f"--module={module_path}", "--seed=1,1"],
            "rabinowitsch": ["--ideal=x-i", "--p=x-i", "--a=j", "--maxN=2", "--N=1", "--degbound=1", "--nvars=1"],
            "selfcheck": ["--seed=1"],
        }
        assert set(requests) == set(cli.COMMANDS)
        for command, (_, _, options) in cli.COMMANDS.items():
            if command != "selfcheck":  # its suites take seconds
                assert main([command, *requests[command]]) == 0, command
            capsys.readouterr()
            for option in options:
                written = [word for word in requests[command] if not word.startswith(option + "=")]
                # the option only as `--`, and `--` after a value of its own
                for argv in ([command, *written, option + "=--"], [command, *requests[command], option + "=--"]):
                    code, out, err = run(capsys, *argv)
                    assert code == 2 and out == "", argv
                    assert sum("error:" in line for line in err.splitlines()) == 1, argv
                    if stores_empty:
                        assert err == f"error: argument {option}: expected one argument\n", argv
