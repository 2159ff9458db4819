"""Golden answers: a fixed list of requests through `cli.main`, pinned by
one sha256 per subcommand.

A pin is the sha256 of the repr of the list of (argv, exit code, stdout)
of that subcommand's requests, in order.  Nothing from stderr is pinned:
argparse's messages differ between Python versions.  The requests are
this file's own, so an edit to the README or the benchmark moves no pin.
A change that alters answers on purpose re-pins the subcommands it
touches and says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from quatca import cli


def _entry(value) -> dict:
    """The JSON form of an integer or of a quaternion (w, x, y, z)."""
    w, x, y, z = value if isinstance(value, tuple) else (value, 0, 0, 0)
    return {"w": str(w), "x": str(x), "y": str(y), "z": str(z)}


def _module(*mats) -> str:
    return json.dumps({"m": len(mats[0]), "mats": [[[_entry(v) for v in row] for row in mat] for mat in mats]})


# The files the eigen requests read, written to a fresh working directory.
MODULE_FILES = {
    "diagonal.json": _module([[2, 0], [0, 3]]),
    "rotation.json": _module([[0, -1], [1, 0]]),
    # A Jordan block and its square, which commute.
    "jordan.json": _module([[1, 1], [0, 1]], [[1, 2], [0, 1]]),
    "units.json": _module([[(0, 1, 0, 0)]], [[(1, 3, 0, 0)]], [[(-2, 0, 0, 0)]]),
    # Eigenvalues +-sqrt(2): no rational root class.
    "irrational.json": _module([[0, 2], [1, 0]]),
    "mixed.json": _module(
        [[(1, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0)],
         [(0, 0, 0, 0), (0, 0, 0, 0), ("1/2", 0, "1/2", 0)]],
    ),
    "noncommuting.json": _module([[(0, 1, 0, 0)]], [[(0, 0, 1, 0)]]),
    "truncated.json": '{"m": 1, "mats": [[[',
}

REQUESTS = {
    "eval": [
        ["eval", "--poly", "3x^3 - (2+i)x + j", "--at", "1+k"],
        ["--json", "eval", "--poly", "(x - 2i)(x + j)", "--at", "2i"],
        ["eval", "--poly", "(x - 2i)(x + j)", "--at=-j", "--side", "right"],
        ["--json", "eval", "--poly", "i x^2 + k", "--at", "1/2 - 3/4j", "--side", "right"],
        ["eval", "--poly", "x^5 - 1", "--at", "1/3+1/3i+1/3j+1/3k", "--side", "left"],
        ["--json", "eval", "--poly", "7/5", "--at", "k"],
        ["eval", "--poly", "(1+i)x^3 - 2/7jx", "--at", "0"],
        ["--json", "eval", "--poly", "x^40 - 3k x", "--at", "1+i", "--side", "right"],
        ["eval", "--poly", "x^2 + 1", "--at", "x"],
        ["eval", "--poly", "x^2 +", "--at", "1"],
        ["eval", "--poly", "x", "--at", "i", "--side", "middle"],
    ],
    "roots": [
        ["--json", "roots", "--poly", "(x - (1+i))(x - (2-j+k))"],
        ["roots", "--poly", "(x - i)(x - 2j)(x - (1+k))"],
        ["roots", "--poly", "x^2 + 4"],
        ["--json", "roots", "--poly", "x^2 - 2x + 10"],
        ["--json", "roots", "--poly", "x^2 - 3"],
        ["roots", "--poly", "x^3 + x + 1"],
        ["--json", "roots", "--poly", "3x - (1+2i)"],
        ["roots", "--poly", "(2+j)x + k"],
        ["--json", "roots", "--poly", "x^3 (x^2 + 2x + 5)"],
        ["roots", "--poly", "(x^2 + 1)(x - 3/2k)"],
        ["roots", "--poly", "7"],
    ],
    "minpoly": [
        ["minpoly", "--element", "2j", "--over", "k"],
        ["--json", "minpoly", "--element", "1+2j", "--over", "i", "--side", "right"],
        ["minpoly", "--element", "2+i", "--over", "i"],
        ["minpoly", "--element", "1+i+j", "--over", "1"],
        ["--json", "minpoly", "--element", "3/2k", "--over", "i,j"],
        ["minpoly", "--element", "i+j", "--over", "i+k", "--side", "right"],
        ["minpoly", "--element", "5", "--over", "j"],
        ["minpoly", "--element", "1-i-j-k", "--over", "2i-3j", "--side", "left"],
        ["--json", "minpoly", "--element", "i", "--over", "j", "--side", "right"],
        ["minpoly", "--element", "", "--over", "i"],
        ["minpoly", "--element", "j", "--over", "i", "--side", "up"],
    ],
    "wedderburn": [
        ["wedderburn", "--element", "i", "--generators", "k"],
        ["--json", "wedderburn", "--element", "1+i", "--generators", "j,k"],
        ["wedderburn", "--element", "2j", "--generators", "1+i"],
        ["wedderburn", "--element", "3", "--generators", "i,j"],
        ["wedderburn", "--element", "i+j", "--generators", "1"],
        ["--json", "wedderburn", "--element", "1/2+1/2i", "--generators", "1+j,1+k,i"],
        ["wedderburn", "--element", "k", "--generators", "i+j+k"],
        ["wedderburn", "--element", "2-3i+k", "--generators", "j,2+k"],
        ["--json", "wedderburn", "--element", "i", "--generators", "i"],
        ["wedderburn", "--element", "i", "--generators", "0"],
    ],
    "espace": [
        ["espace", "--poly", "x^2 + 9", "--root", "3j"],
        ["--json", "espace", "--poly", "(x - i)(x - j)", "--root", "j"],
        ["espace", "--poly", "x^2 - 2x + 2", "--root", "1+k"],
        ["espace", "--poly", "x - 3", "--root", "3"],
        ["--json", "espace", "--poly", "(x^2 + 1)(x - 2)", "--root", "2"],
        ["espace", "--poly", "(x^2 + 4)^2", "--root", "2j"],
        ["espace", "--poly", "x^3 + x", "--root", "0"],
        ["espace", "--poly", "(x - i)(x - (1+j))", "--root", "1+j"],
        ["--json", "espace", "--poly", "x^2 + x + 1", "--root", "-1/2 + 1/2i + 1/2j + 1/2k"],
        ["espace", "--poly", "x^2 + 1", "--root", "1"],
    ],
    "indep": [
        ["indep", "--a", "j", "--bs", "1,k"],
        ["--json", "indep", "--a", "i", "--bs", "1,i"],
        ["indep", "--a", "1", "--bs", "i,j,k,1+i"],
        ["indep", "--a", "j+k", "--bs", "1,i,j+k"],
        ["indep", "--a", "2i", "--bs", "k"],
        ["indep", "--a", "1+i", "--bs", "1,j"],
        ["--json", "indep", "--a", "i", "--bs", "0"],
        ["indep", "--a", "i-j", "--bs", "1,k,i+j"],
        ["indep", "--a", "3", "--bs", "1,2"],
        ["indep", "--a", "k", "--bs", "i,j"],
    ],
    "degree": [
        ["degree", "--a", "j", "--b", "k"],
        ["--json", "degree", "--a", "i", "--b", "2i"],
        ["degree", "--a", "1+i", "--b", "1+j"],
        ["degree", "--a", "3", "--b", "j"],
        ["--json", "degree", "--a", "i+j+k", "--b", "i-j"],
        ["degree", "--a", "1/2j", "--b", "7"],
        ["degree", "--a", "i", "--b", "1+i"],
        ["degree", "--a", "2-k", "--b", "3i+4j"],
        ["--json", "degree", "--a", "0", "--b", "i"],
        ["degree", "--a", "i", "--b", "x"],
    ],
    "witness": [
        ["witness", "--a", "2+i", "--b", "j"],
        ["--json", "witness", "--a", "i", "--b", "2i"],
        ["witness", "--a", "1+i", "--b", "1+j"],
        ["witness", "--a", "3", "--b", "j"],
        ["--json", "witness", "--a", "i+j+k", "--b", "i-j"],
        ["witness", "--a", "1/2j", "--b", "7"],
        ["witness", "--a", "k", "--b", "1+i"],
        ["witness", "--a", "2-k", "--b", "3i+4j"],
        ["--json", "witness", "--a", "0", "--b", "i"],
        ["witness", "--a", "i", "--b", "j +"],
    ],
    "reduce": [
        ["reduce", "--poly", "x1^2 + 4", "--point", "2j"],
        ["--json", "reduce", "--poly", "x1 x2 - k", "--point", "i;1+i"],
        ["reduce", "--poly", "x1^3 - x2", "--point", "j;2"],
        ["reduce", "--poly", "x^2 - x2", "--point", "1+i;2i", "--nvars", "2"],
        ["--json", "reduce", "--poly", "j x1^2 x2 + i x2^3", "--point", "k;3k"],
        ["reduce", "--poly", "x1 + x2 + x3", "--point", "1;2;3"],
        ["reduce", "--poly", "(x1 - i)^3", "--point", "i"],
        ["--json", "reduce", "--poly", "x2^2", "--point", "1/2 + 1/3i; -i"],
        ["reduce", "--poly", "x1", "--point", "i;j"],
        ["reduce", "--poly", "x3", "--point", "i;i"],
    ],
    "eigen": [
        ["eigen", "--module", "diagonal.json"],
        ["--json", "eigen", "--module", "diagonal.json", "--seed", "1,1"],
        ["eigen", "--module", "rotation.json"],
        ["--json", "eigen", "--module", "rotation.json", "--seed", "1, j"],
        ["--json", "eigen", "--module", "jordan.json"],
        ["eigen", "--module", "units.json"],
        ["--json", "eigen", "--module", "irrational.json"],
        ["eigen", "--module", "mixed.json", "--seed", "1, 1, 1"],
        ["eigen", "--module", "noncommuting.json"],
        ["eigen", "--module", "truncated.json"],
        ["eigen", "--module", "absent.json"],
    ],
    "rabinowitsch": [
        ["--json", "rabinowitsch", "--ideal", "(x - j)^3", "--p", "x - j", "--a", "k", "--maxN", "4"],
        ["rabinowitsch", "--ideal", "(x - j)^3", "--p", "x - j", "--a", "k", "--N", "3", "--degbound", "0"],
        ["rabinowitsch", "--ideal", "x - 2i", "--p", "x - 2i", "--a", "1", "--N", "1"],
        ["--json", "rabinowitsch", "--ideal", "x^2 + 1", "--p", "x - i", "--a", "1", "--maxN", "3"],
        ["rabinowitsch", "--ideal", "x - k", "--p", "x + k", "--a", "1", "--maxN", "3", "--degbound", "1"],
        ["--json", "rabinowitsch", "--nvars", "2", "--ideal", "x1 - i", "--ideal", "x2 - 3i",
         "--p", "x2 - 3x1", "--a", "1", "--maxN", "2"],
        ["rabinowitsch", "--nvars", "2", "--ideal", "x1 - j", "--ideal", "x2",
         "--p", "x1 x2 + x1 - j", "--a", "j", "--N", "2", "--degbound", "1"],
        ["--json", "rabinowitsch", "--ideal", "x - (1+i)", "--p", "1", "--a", "1", "--maxN", "2"],
        ["rabinowitsch", "--ideal", "x^2 - 2x + 2", "--p", "x - 1", "--a", "i", "--N", "2", "--degbound", "2"],
        ["rabinowitsch", "--ideal", "x - i", "--p", "x - i", "--a", "j", "--N", "0"],
    ],
    "selfcheck": [
        ["--json", "selfcheck", "--seed", "1"],
    ],
}

# Computed at the commit before this file was added, and unchanged since.
PINS = {
    "eval": "e505f7bfbf93c35207bf13ee9bfabcab694e87e9eb5103a6b621636ae3802dd3",
    "roots": "e58592d914c2f87f326a8826d7e87b794bf531d5da81176c677601edea34baa1",
    "minpoly": "1d67f327165d5679413b7134cca84d26d1696396bb8d189e7c0da4b4322d5a39",
    "wedderburn": "6a6764f17496085e34c176d3a6d837dca6e67c90afc68e3626b661b8c7ddcdb8",
    "espace": "c4b0809d5e118f1a1165b55c1138decc581cb4ebb978dcb500dead46a12f62ae",
    "indep": "8bbd47645a75871d862cb55c9205f9f4ebbdc03d7e564a3df1cc29c73eb49911",
    "degree": "a0f8e6d3939af942fa5051956ce93d380e0be9e1d44d4bdd7e624845429813ce",
    "witness": "2aba12b3a1d2e15169ccca88c688a67507ed4bdf8c2910a37ebb0688fcff987f",
    "reduce": "c32a1703f3c0c873e9dc5f6a06d72fd2d9b04ff872cec4859fe9ae342903b8c5",
    "eigen": "cca2a3539e432fc732e1e49d656d8be70735d13cc22ed42902de86ebb328adf6",
    "rabinowitsch": "af3c765ab7c970d98ce84593f34ae631b69312cfd2343515cfb4ed3c8c430752",
    "selfcheck": "36b68711e92fc5f310ac8929aee276ab432e5b4458dbb58437e9bc71a042ba19",
}


def _answers(command: str) -> list:
    """(argv, exit code, stdout) of each request of command, in order."""
    answers = []
    for argv in REQUESTS[command]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        answers.append((argv, code, out.getvalue()))
    return answers


def _digest(command: str) -> str:
    return hashlib.sha256(repr(_answers(command)).encode()).hexdigest()


def test_every_subcommand_has_its_requests():
    assert REQUESTS.keys() == cli.COMMANDS.keys() == PINS.keys()
    assert all(len(REQUESTS[c]) >= 10 for c in REQUESTS if c != "selfcheck")


@pytest.mark.parametrize("command", REQUESTS)
def test_answers_match_pins(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in MODULE_FILES.items():
        (tmp_path / name).write_text(text)
    assert _digest(command) == PINS[command]
