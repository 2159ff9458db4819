"""Command-line front end.

Every subcommand dispatches to exactly one kernel operation and emits a
report with three fields: `status` (ok, not-found, possibly-incomplete,
error), an operation-specific `payload`, and `provenance`, a short label of
the underlying result.  Exit codes: 0 for any domain answer, 2 for usage or
parse errors, 3 for internal assertion failures, and 141 (128 + SIGPIPE, the
status a shell gives a writer killed by a closed pipe) when the reader closes
stdout before the report is written, as `quatca ... | head -1` may; that
case prints no traceback.

`build_parser()` is the only spec of the options and the only source of
help, error messages and usage exit codes.  A request of `--json`, a
subcommand and that subcommand's exact long options (`--opt=value` or
`--opt value`) is read by `_read_argv` from the parser's own actions;
anything else goes to argparse.  `--json` reports are written by
`_dumps_indent2`, byte for byte what `json.dumps(..., indent=2)` writes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import selfcheck, serde
from .errors import InternalError, InvalidInput
from .modules import EigenTuple, find_eigen_tuple
from .mpoly import (
    CommutingPoint,
    LeftIdeal,
    RabinowitschCertificate,
    eval_at_point,
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
from .scalars import centralizer_of_set
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


@dataclass
class Report:
    status: str
    payload: dict
    provenance: str

    def to_json(self) -> dict:
        return {"status": self.status, "payload": self.payload, "provenance": self.provenance}


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        obj = report.to_json()
        try:
            text = _dumps_indent2(obj)
        except TypeError:
            text = json.dumps(obj, indent=2)
        print(text)
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
    return Report(
        OK,
        {
            "remainder": str(remainder),
            "remainder_json": serde.quat_to_json(remainder),
            "quotients": [str(q) for q in quotients],
            "in_point_ideal": not remainder,
            "value_at_point": str(eval_at_point(poly, point)),
        },
        "division with exact remainder modulo a point ideal",
    )


def _cmd_eigen(args) -> Report:
    try:
        if args.module == "-":
            obj = json.load(sys.stdin)
        else:
            with open(args.module) as fh:
                obj = json.load(fh)
    except RecursionError:
        raise InvalidInput("module file is nested too deeply") from None
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
    report = selfcheck.run_all(args.seed)
    status = OK if report["ok"] else ERROR
    return Report(status, report, "property suites for the algebra kernel")


@functools.cache  # one parser per process: `_argv_spec` reads its actions, argparse reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatca",
        description="Exact computer algebra over the rational quaternions.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable reports")
    # The flag is accepted on either side of the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value parsed before it.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit machine-readable reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("eval", parents=[json_flag], help="evaluate a polynomial at a quaternion")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--at", required=True)
    cmd.add_argument("--side", choices=("left", "right"), default="left")
    cmd.set_defaults(handler=_cmd_eval)

    cmd = sub.add_parser("roots", parents=[json_flag], help="conjugacy classes of right roots")
    cmd.add_argument("--poly", required=True)
    cmd.set_defaults(handler=_cmd_roots)

    cmd = sub.add_parser("minpoly", parents=[json_flag], help="minimal one-sided polynomial over a centralizer")
    cmd.add_argument("--element", required=True)
    cmd.add_argument("--over", required=True, help="comma-separated quaternions; their centralizer is the coefficient ring")
    cmd.add_argument("--side", choices=("left", "right"), default="left")
    cmd.set_defaults(handler=_cmd_minpoly)

    cmd = sub.add_parser("wedderburn", parents=[json_flag], help="least common left multiple over a conjugation orbit")
    cmd.add_argument("--element", required=True)
    cmd.add_argument("--generators", required=True, help="comma-separated nonzero conjugators")
    cmd.set_defaults(handler=_cmd_wedderburn)

    cmd = sub.add_parser("espace", parents=[json_flag], help="conjugation root space at a right root")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--root", required=True)
    cmd.set_defaults(handler=_cmd_espace)

    cmd = sub.add_parser("indep", parents=[json_flag], help="left linear independence over a centralizer")
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--bs", required=True, help="comma-separated vectors")
    cmd.set_defaults(handler=_cmd_indep)

    cmd = sub.add_parser("degree", parents=[json_flag], help="left algebraic degree over a centralizer")
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--b", required=True)
    cmd.set_defaults(handler=_cmd_degree)

    cmd = sub.add_parser("witness", parents=[json_flag], help="algebraicity witness coefficients")
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--b", required=True)
    cmd.set_defaults(handler=_cmd_witness)

    cmd = sub.add_parser("reduce", parents=[json_flag], help="reduce a polynomial modulo a point ideal")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--point", required=True, help="semicolon-separated commuting components")
    cmd.add_argument("--nvars", type=int, default=None)
    cmd.set_defaults(handler=_cmd_reduce)

    cmd = sub.add_parser("eigen", parents=[json_flag], help="extract a common eigenvector from a module presentation")
    cmd.add_argument("--module", required=True, help="JSON file, or - for stdin")
    cmd.add_argument("--seed", default=None, help="comma-separated seed vector")
    cmd.set_defaults(handler=_cmd_eigen)

    cmd = sub.add_parser("rabinowitsch", parents=[json_flag], help="search for a power-membership certificate")
    cmd.add_argument("--ideal", action="append", required=True, help="generator (repeatable)")
    cmd.add_argument("--p", required=True)
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--maxN", type=int, default=5)
    cmd.add_argument("--N", type=int, default=None, help="check one power instead of searching")
    cmd.add_argument("--degbound", type=int, default=2)
    cmd.add_argument("--nvars", type=int, default=1)
    cmd.set_defaults(handler=_cmd_rabinowitsch)

    cmd = sub.add_parser("selfcheck", parents=[json_flag], help="run the kernel property suites")
    cmd.add_argument("--seed", type=int, default=selfcheck.DEFAULT_SEED)
    cmd.set_defaults(handler=_cmd_selfcheck)

    return parser


@functools.cache
def _argv_spec():
    """What `_read_argv` needs of `build_parser()`, read once from the
    parser's own actions: the top level's option table, the subcommand's
    dest, and each subcommand's option table (`_option_table`)."""
    parser = build_parser()
    (subparsers,) = parser._subparsers._group_actions
    commands = {name: _option_table(sub) for name, sub in subparsers.choices.items()}
    return _option_table(parser), subparsers.dest, commands


def _option_table(parser: argparse.ArgumentParser):
    """(options, defaults, required) of one parser: its exact long option
    strings of store, append and store-const actions that take one value or
    none, the values it sets before reading any argument (the actions'
    defaults, then `set_defaults`), and its required actions."""
    options, defaults = {}, {}
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        one_value = isinstance(action, (argparse._StoreAction, argparse._AppendAction)) and action.nargs is None
        if one_value or isinstance(action, argparse._StoreConstAction):
            options.update((o, action) for o in action.option_strings if o.startswith("--"))
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    required = {a for a in parser._actions if a.required and not isinstance(a, argparse._SubParsersAction)}
    return options, defaults, required


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, where argv
    is `--json`, a known subcommand and that subcommand's exact long
    options, each as `--opt=value` or `--opt value` with a value that does
    not start with `-`.  Otherwise None, and argparse reads argv with its
    own messages and exit codes: help, an unknown or abbreviated option, a
    missing or repeated one, a failed type or choices check, `--`."""
    top, dest, commands = _argv_spec()
    read = _read_options(top, argv, 0)
    if read is None or read[1] == len(argv) or argv[read[1]] not in commands:
        return None
    values, at = read
    read = _read_options(commands[argv[at]], argv, at + 1)
    if read is None or read[1] != len(argv):
        return None
    values[dest] = argv[at]
    values.update(read[0])
    return argparse.Namespace(**values)


def _read_options(table, argv, at: int) -> tuple[dict, int] | None:
    """The values one parser sets from argv[at:], up to the first argument
    that does not start with `-`, and that argument's index (or len(argv));
    None where argparse must decide."""
    options, defaults, required = table
    values = dict(defaults)
    seen = set()
    while at < len(argv) and argv[at][:1] == "-":
        name, eq, value = argv[at].partition("=")
        action = options.get(name)
        if action is None or (action in seen and not isinstance(action, argparse._AppendAction)):
            return None
        seen.add(action)
        at += 1
        if isinstance(action, argparse._StoreConstAction):
            if eq:
                return None
            values[action.dest] = action.const
            continue
        if not eq:
            if at == len(argv) or argv[at][:1] == "-":
                return None
            value = argv[at]
            at += 1
        elif value == "--":  # argparse strips it and stores []
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        if isinstance(action, argparse._AppendAction):
            value = [*(values.get(action.dest) or ()), value]
        values[action.dest] = value
    return (values, at) if required <= seen else None


def main(argv: list[str] | None = None) -> int:
    with _exact_integers():
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return EXIT_USAGE if exc.code else 0
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
