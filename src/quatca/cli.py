"""Command-line front end.

Every subcommand dispatches to exactly one kernel operation and emits a
report with three fields: `status` (ok, not-found, possibly-incomplete,
error), an operation-specific `payload`, and `provenance`, a short label of
the underlying result.  Exit codes: 0 for any domain answer, 2 for usage or
parse errors, 3 for internal assertion failures, and 141 (128 + SIGPIPE, the
status a shell gives a writer killed by a closed pipe) when the reader closes
stdout before the report is written, as `quatca ... | head -1` may; that
case prints no traceback.

`COMMANDS` is the only spec of the subcommands and their options.
`build_parser()` turns it into the argparse parser, the only source of
help, error messages and usage exit codes; it is built only when argparse
must read argv.  A request of `--json`, a subcommand and that subcommand's
exact long options (`--opt=value` or `--opt value`) is read by `_read_argv`
straight from `COMMANDS`; anything else goes to argparse.  `--json` reports
are written by `_dumps_indent2`, byte for byte what
`json.dumps(..., indent=2)` writes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import serde
from .errors import InternalError, InvalidInput
from .modules import EigenTuple, find_eigen_tuple
from .mpoly import (
    CommutingPoint,
    LeftIdeal,
    RabinowitschCertificate,
    find_certificate,
    rabinowitsch_check,
    reduce_mod_point,
)
from .parsing import (
    parse_mpoly,
    parse_quat,
    parse_quat_list,
    parse_upoly,
)
from .ratexpr import (
    algebraicity_witness,
    independent_via_criterion,
    independent_via_rank,
    left_degree_via_criterion,
    left_degree_via_rank,
    right_degree,
)
from .scalars import _Record, centralizer_of_set
from .upoly import (
    RootSearchStatus,
    minimal_left_poly,
    minimal_right_poly,
    right_roots,
    root_space,
    wedderburn_lclm,
)

OK = "ok"
ERROR = "error"
NOT_FOUND = "not-found"
POSSIBLY_INCOMPLETE = "possibly-incomplete"

EXIT_DOMAIN = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


class Report(_Record):
    __slots__ = ("status", "payload", "provenance")

    def __init__(self, status: str, payload: dict, provenance: str):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "provenance", provenance)

    def to_json(self) -> dict:
        return {"status": self.status, "payload": self.payload, "provenance": self.provenance}


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        print(_dumps_indent2(report.to_json()))
    else:
        print(f"status: {report.status}")
        for key, value in report.payload.items():
            if isinstance(value, (list, dict)):
                print(f"{key}: {json.dumps(value)}")
            else:
                print(f"{key}: {value}")
        print(f"provenance: {report.provenance}")


_quote = json.encoder.encode_basestring_ascii  # the C encoder's string writer


def _dumps_indent2(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for the shapes a report
    holds: dicts with str keys, lists, tuples, str, int, bool and None.
    Any other type raises TypeError.  A set indent sends `json` to its
    pure-Python encoder; here strings go through the C function behind
    `ensure_ascii` and ints through `int.__repr__`, as `json` writes them."""
    out = []
    _write_indent2(obj, "\n", out)
    return "".join(out)


def _write_indent2(obj, newline: str, out: list) -> None:
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_indent2(value, inner, out)
            sep = "," + inner
        out += (newline, "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"key of type {type(key).__name__}")
            out += (sep, _quote(key), ": ")
            _write_indent2(value, inner, out)
            sep = "," + inner
        out += (newline, "}")
    else:
        raise TypeError(f"value of type {type(obj).__name__}")


# -- handlers ----------------------------------------------------------------

def _cmd_eval(args) -> Report:
    poly = parse_upoly(args.poly)
    at = parse_quat(args.at)
    value = poly.eval_left(at) if args.side == "left" else poly.eval_right(at)
    return Report(
        OK,
        {"value": str(value), "value_json": serde.quat_to_json(value), "side": args.side},
        "one-sided evaluation of a polynomial over a division ring",
    )


def _cmd_roots(args) -> Report:
    poly = parse_upoly(args.poly)
    classes, status = right_roots(poly)
    payload = {
        "classes": [serde.root_class_to_json(c) for c in classes],
        "search": status.value,
    }
    report_status = OK if status == RootSearchStatus.COMPLETE else POSSIBLY_INCOMPLETE
    return Report(
        report_status,
        payload,
        "right-root classes through the central companion polynomial "
        "(Niven-Jacobson reduction)",
    )


def _cmd_minpoly(args) -> Report:
    element = parse_quat(args.element)
    over = centralizer_of_set(parse_quat_list(args.over))
    poly = (
        minimal_left_poly(element, over)
        if args.side == "left"
        else minimal_right_poly(element, over)
    )
    return Report(
        OK,
        {
            "poly": str(poly),
            "poly_json": serde.upoly_to_json(poly),
            "degree": poly.degree,
            "over": over.describe(),
        },
        "minimal one-sided polynomial over a centralizer",
    )


def _cmd_wedderburn(args) -> Report:
    element = parse_quat(args.element)
    gens = parse_quat_list(args.generators)
    poly = wedderburn_lclm(element, gens)
    return Report(
        OK,
        {
            "poly": str(poly),
            "poly_json": serde.upoly_to_json(poly),
            "degree": poly.degree,
        },
        "Wedderburn polynomial as the least common left multiple of "
        "conjugate linear factors",
    )


def _cmd_espace(args) -> Report:
    poly = parse_upoly(args.poly)
    at = parse_quat(args.root)
    basis = root_space(poly, at)
    return Report(
        OK,
        {
            "dim": basis.dim,
            "basis": [str(b) for b in basis.basis],
            "basis_json": [serde.quat_to_json(b) for b in basis.basis],
            "over": basis.over.describe(),
        },
        "conjugation root space as a right vector space over a centralizer",
    )


def _cmd_indep(args) -> Report:
    a = parse_quat(args.a)
    bs = parse_quat_list(args.bs)
    by_criterion = independent_via_criterion(a, bs)
    by_rank = independent_via_rank(a, bs)
    if by_criterion != by_rank:
        raise InternalError("independence criterion disagrees with the rank oracle")
    return Report(
        OK,
        {"independent": by_criterion, "cross_checked": True},
        "rational criterion for left linear independence over a centralizer",
    )


def _cmd_degree(args) -> Report:
    a = parse_quat(args.a)
    b = parse_quat(args.b)
    via_criterion = left_degree_via_criterion(a, b)
    via_rank = left_degree_via_rank(a, b)
    if via_criterion != via_rank:
        raise InternalError("degree criterion disagrees with the rank oracle")
    return Report(
        OK,
        {
            "left_degree": via_rank,
            "right_degree_of_a_over_centralizer_of_b": right_degree(b, a),
        },
        "rational criterion for left algebraic degree over a centralizer",
    )


def _cmd_witness(args) -> Report:
    a = parse_quat(args.a)
    b = parse_quat(args.b)
    coeffs = algebraicity_witness(a, b)
    return Report(
        OK,
        {
            "coefficients": [str(c) for c in coeffs],
            "coefficients_json": [serde.quat_to_json(c) for c in coeffs],
            "degree": len(coeffs),
        },
        "algebraicity witness from the minimal right polynomial",
    )


def _cmd_reduce(args) -> Report:
    point = CommutingPoint([parse_quat(part) for part in args.point.split(";")])
    nvars = len(point) if args.nvars is None else args.nvars
    poly = parse_mpoly(args.poly, nvars)
    remainder, quotients = reduce_mod_point(poly, point)
    value = str(remainder)
    return Report(
        OK,
        {
            "remainder": value,
            "remainder_json": serde.quat_to_json(remainder),
            "quotients": [str(q) for q in quotients],
            "in_point_ideal": not remainder,
            "value_at_point": value,
        },
        "division with exact remainder modulo a point ideal",
    )


def _cmd_eigen(args) -> Report:
    try:
        if args.module == "-":
            obj = json.load(sys.stdin)
        else:
            with open(args.module, encoding="utf-8") as fh:
                obj = json.load(fh)
    except RecursionError:
        raise InvalidInput("module file is nested too deeply") from None
    except UnicodeDecodeError:
        where = "on stdin" if args.module == "-" else f"file {args.module}"
        raise InvalidInput(f"module {where} is not UTF-8") from None
    module = serde.module_from_json(obj)
    seed = tuple(parse_quat_list(args.seed)) if args.seed else None
    outcome = find_eigen_tuple(module, seed)
    if isinstance(outcome, EigenTuple):
        return Report(
            OK,
            {
                "eigen": serde.eigen_to_json(outcome),
                "point": str(outcome.point),
            },
            "common eigenvector extraction for commuting matrix actions",
        )
    return Report(
        NOT_FOUND,
        {"root_not_found": serde.root_not_found_to_json(outcome)},
        "common eigenvector extraction for commuting matrix actions",
    )


def _cmd_rabinowitsch(args) -> Report:
    nvars = args.nvars
    gens = [parse_mpoly(text, nvars) for text in args.ideal]
    ideal = LeftIdeal(tuple(gens))
    p = parse_mpoly(args.p, nvars)
    a = parse_quat(args.a)
    provenance = "membership certificate for a power, Rabinowitsch style"
    if args.N is not None:
        outcome = rabinowitsch_check(ideal, p, a, args.N, args.degbound)
        if isinstance(outcome, RabinowitschCertificate):
            return Report(OK, {"N": outcome.N, "certificate": serde.certificate_to_json(outcome)}, provenance)
        return Report(
            NOT_FOUND,
            {"N": args.N, "degbound": args.degbound},
            provenance,
        )
    outcome = find_certificate(ideal, p, a, args.maxN, args.degbound)
    if isinstance(outcome, tuple):
        n_found, cert = outcome
        return Report(OK, {"N": n_found, "certificate": serde.certificate_to_json(cert)}, provenance)
    return Report(
        NOT_FOUND,
        {"maxN": args.maxN, "degbound": args.degbound, "every_power": outcome.every_power},
        provenance,
    )


def _cmd_selfcheck(args) -> Report:
    # The suites and `randgen` load only for this subcommand, and so does
    # the default seed.
    from . import selfcheck

    report = selfcheck.run_all(selfcheck.DEFAULT_SEED if args.seed is None else args.seed)
    status = OK if report["ok"] else ERROR
    return Report(status, report, "property suites for the algebra kernel")


_JSON_HELP = "emit machine-readable reports"

# The one spec of the command line: subcommand -> (help, handler, {long
# option: the keyword arguments `add_argument` takes}).  `build_parser`
# makes argparse's parser of it and `_read_argv` reads argv by it.
COMMANDS = {
    "eval": ("evaluate a polynomial at a quaternion", _cmd_eval, {
        "--poly": {"required": True},
        "--at": {"required": True},
        "--side": {"choices": ("left", "right"), "default": "left"},
    }),
    "roots": ("conjugacy classes of right roots", _cmd_roots, {"--poly": {"required": True}}),
    "minpoly": ("minimal one-sided polynomial over a centralizer", _cmd_minpoly, {
        "--element": {"required": True},
        "--over": {"required": True, "help": "comma-separated quaternions; their centralizer is the coefficient ring"},
        "--side": {"choices": ("left", "right"), "default": "left"},
    }),
    "wedderburn": ("least common left multiple over a conjugation orbit", _cmd_wedderburn, {
        "--element": {"required": True},
        "--generators": {"required": True, "help": "comma-separated nonzero conjugators"},
    }),
    "espace": ("conjugation root space at a right root", _cmd_espace, {
        "--poly": {"required": True}, "--root": {"required": True},
    }),
    "indep": ("left linear independence over a centralizer", _cmd_indep, {
        "--a": {"required": True}, "--bs": {"required": True, "help": "comma-separated vectors"},
    }),
    "degree": ("left algebraic degree over a centralizer", _cmd_degree, {
        "--a": {"required": True}, "--b": {"required": True},
    }),
    "witness": ("algebraicity witness coefficients", _cmd_witness, {
        "--a": {"required": True}, "--b": {"required": True},
    }),
    "reduce": ("reduce a polynomial modulo a point ideal", _cmd_reduce, {
        "--poly": {"required": True},
        "--point": {"required": True, "help": "semicolon-separated commuting components"},
        "--nvars": {"type": int, "default": None},
    }),
    "eigen": ("extract a common eigenvector from a module presentation", _cmd_eigen, {
        "--module": {"required": True, "help": "JSON file, or - for stdin"},
        "--seed": {"default": None, "help": "comma-separated seed vector"},
    }),
    "rabinowitsch": ("search for a power-membership certificate", _cmd_rabinowitsch, {
        "--ideal": {"action": "append", "required": True, "help": "generator (repeatable)"},
        "--p": {"required": True},
        "--a": {"required": True},
        "--maxN": {"type": int, "default": 5},
        "--N": {"type": int, "default": None, "help": "check one power instead of searching"},
        "--degbound": {"type": int, "default": 2},
        "--nvars": {"type": int, "default": 1},
    }),
    "selfcheck": ("run the kernel property suites", _cmd_selfcheck, {
        "--seed": {"type": int, "default": None},
    }),
}


@functools.cache  # one parser per process, built only when argparse reads argv
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatca",
        description="Exact computer algebra over the rational quaternions.",
    )
    parser.add_argument("--json", action="store_true", help=_JSON_HELP)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        # The flag is accepted on either side of the subcommand; SUPPRESS
        # keeps the subparser from clobbering a value parsed before it.
        cmd.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=_JSON_HELP)
        for option, kwargs in options.items():
            cmd.add_argument(option, **kwargs)
        cmd.set_defaults(handler=handler)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read from
    COMMANDS, where argv is `--json`, a known subcommand and that
    subcommand's exact long options, each as `--opt=value` or `--opt value`
    with a value that does not start with `-`.  Otherwise None, and
    argparse reads argv with its own messages and exit codes: help, an
    unknown or abbreviated option, a missing or repeated one, a failed type
    or choices check, `--`."""
    at = 0
    as_json = False
    while at < len(argv) and argv[at] == "--json":
        as_json, at = True, at + 1
    if at == len(argv) or argv[at] not in COMMANDS:
        return None
    command = argv[at]
    _, handler, options = COMMANDS[command]
    values = {option[2:]: kwargs.get("default") for option, kwargs in options.items()}
    values.update(json=as_json, command=command, handler=handler)
    seen = set()
    at += 1
    while at < len(argv):
        option, eq, value = argv[at].partition("=")
        at += 1
        if option == "--json" and not eq:
            values["json"] = True
            continue
        kwargs = options.get(option)
        if kwargs is None or (option in seen and kwargs.get("action") != "append"):
            return None
        seen.add(option)
        if not eq:
            if at == len(argv) or argv[at][:1] == "-":
                return None
            value = argv[at]
            at += 1
        elif value == "--":  # argparse strips it and stores [], by version
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        if kwargs.get("action") == "append":
            value = [*(values[option[2:]] or ()), value]
        values[option[2:]] = value
    if any(kwargs.get("required") and option not in seen for option, kwargs in options.items()):
        return None
    return argparse.Namespace(**values)


def _missing_value(args) -> str | None:
    """The option that argparse gave no value, where `--opt=--` stored []
    in place of one; some Python versions do, others keep the `--`."""
    for option, kwargs in COMMANDS[args.command][2].items():
        value = getattr(args, option[2:])
        if [] in (value or () if kwargs.get("action") == "append" else [value]):
            return option
    return None


def main(argv: list[str] | None = None) -> int:
    with _exact_integers():
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return EXIT_USAGE if exc.code else 0
            if option := _missing_value(args):
                print(f"error: argument {option}: expected one argument", file=sys.stderr)
                return EXIT_USAGE
        try:
            report = args.handler(args)
        except InternalError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        except (InvalidInput, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _emit(report, args.json)
    return EXIT_INTERNAL if report.status == ERROR else EXIT_DOMAIN


@contextlib.contextmanager
def _exact_integers():
    """Lift the interpreter's int<->str digit cap, where it has one, for one
    call: integers of any length are read and printed exactly, and an
    in-process caller gets its own cap back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def entry():
    """`python -m quatca` and the `quatca` script: `main`, with stdout
    flushed before the exit.  A reader that closed stdout early ends the
    run with EXIT_BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; devnull takes it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)
