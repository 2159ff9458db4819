"""JSON forms for every kernel value.

Rationals travel as decimal-free strings: `"3"`, `"-2/3"`.  Quaternions
are objects over the fixed basis order, `{"w": ..., "x": ..., "y": ...,
"z": ...}`.  Polynomial coefficient lists run low to high.

A quaternion crosses this boundary as the integers a `Quat` keeps: its
four rational strings are joined by a comma, which no rational contains,
and read by one match of a four-rational pattern into integer numerators
and denominators; the four become numerators over the lcm of their
denominators and are reduced once to the canonical form.  Only an object
that does not match (or holds a zero denominator or a numeral past the
interpreter's digit cap) is re-read field by field, for the message that
names its first bad field.  Each coordinate is written back from the
canonical numerators with one gcd.  No `Fraction` is built either way.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidInput, _too_many_digits
from .modules import EigenTuple, ModulePresentation, RootNotFound
from .mpoly import CommutingPoint, MPoly, RabinowitschCertificate
from .scalars import Quat, _reduced
from .upoly import Isolated, RootClass, UPoly

_KEYS = ("w", "x", "y", "z")


def rat_to_json(r: Fraction) -> str:
    try:
        return str(r)
    except ValueError:
        raise _too_many_digits("number") from None


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# Four rationals joined by commas.  Kept as text, so that `re` compiles it
# at its first use rather than at import.
_QUATERNION = ",".join([_RATIONAL.pattern] * 4)


def _rational(text: str) -> tuple[int, int]:
    """The numerator and positive denominator of a rational string, as
    written: not reduced."""
    if not isinstance(text, str):
        raise InvalidInput(f"rational must be a string, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise InvalidInput(f"bad rational {text!r}: expected -?digits(/digits)?")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise _too_many_digits("rational") from None
    if not den:
        raise InvalidInput(f"bad rational {text!r}")
    return num, den


def _coordinate(v: int, m: int) -> str:
    """The text of v/m in lowest terms, as `str` of that `Fraction` gives it."""
    g = gcd(v, m)
    return str(v // g) if g == m else f"{v // g}/{m // g}"


def quat_to_json(q: Quat) -> dict:
    try:
        return {key: _coordinate(v, q._d) for key, v in zip(_KEYS, q._n)}
    except ValueError:
        raise _too_many_digits("number") from None


def quat_from_json(obj: dict) -> Quat:
    if isinstance(obj, dict):
        try:
            match = re.fullmatch(_QUATERNION, ",".join([obj["w"], obj["x"], obj["y"], obj["z"]]))
            if match is not None:
                a, p, b, q, c, r, d, s = map(int, match.groups("1"))
                if p and q and r and s:
                    m = lcm(p, q, r, s)
                    return _reduced(a * (m // p), b * (m // q), c * (m // r), d * (m // s), m)
        except (KeyError, TypeError, ValueError):
            pass  # the field-by-field reading below names the fault
    return _quat_by_field(obj)


def _quat_by_field(obj) -> Quat:
    if not isinstance(obj, dict):
        raise InvalidInput(f"quaternion must be an object, got {obj!r}")
    try:
        (a, p), (b, q), (c, r), (d, s) = (_rational(obj[key]) for key in _KEYS)
    except KeyError as exc:
        raise InvalidInput(f"quaternion object missing field {exc}") from exc
    m = lcm(p, q, r, s)
    return _reduced(a * (m // p), b * (m // q), c * (m // r), d * (m // s), m)


def upoly_to_json(p: UPoly) -> list:
    return [quat_to_json(c) for c in p.coeffs]


def mpoly_to_json(p: MPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [
            {"exps": list(exps), "coeff": quat_to_json(c)}
            for exps, c in p.sorted_terms()
        ],
    }


def point_to_json(pt: CommutingPoint) -> dict:
    return {"components": [quat_to_json(c) for c in pt]}


def module_to_json(module: ModulePresentation) -> dict:
    return {
        "m": module.m,
        "mats": [
            [[quat_to_json(entry) for entry in row] for row in mat]
            for mat in module.mats
        ],
    }


def module_from_json(obj: dict) -> ModulePresentation:
    try:
        m, mats = obj["m"], obj["mats"]
        grid = [[[quat_from_json(entry) for entry in row] for row in mat] for mat in mats]
    except KeyError as exc:
        raise InvalidInput(f"module object missing field {exc}") from exc
    except TypeError as exc:
        raise InvalidInput(f"module must be an object of nested arrays ({exc})") from exc
    if not isinstance(m, int) or isinstance(m, bool):
        raise InvalidInput(f"module dimension must be an integer, got {m!r}")
    return ModulePresentation(m, grid)


def eigen_to_json(tup: EigenTuple) -> dict:
    return {
        "vector": [quat_to_json(c) for c in tup.v],
        "point": point_to_json(tup.point),
    }


def root_not_found_to_json(out: RootNotFound) -> dict:
    return {
        "poly": upoly_to_json(out.poly),
        "poly_text": str(out.poly),
        "variable": out.var_index + 1,
        "search_exhaustive": out.search_exhaustive,
    }


def root_class_to_json(cls: RootClass) -> dict:
    if isinstance(cls, Isolated):
        return {"kind": "isolated", "a": quat_to_json(cls.a)}
    return {"kind": "sphere", "t": rat_to_json(cls.t), "n": rat_to_json(cls.n)}


def certificate_to_json(cert: RabinowitschCertificate) -> dict:
    return {
        "N": cert.N,
        "cofactors": [
            [mpoly_to_json(h) for h in row] for row in cert.cofactors
        ],
    }
