"""JSON forms for every kernel value.

Rationals travel as decimal-free strings: `"3"`, `"-2/3"`.  Quaternions
are objects over the fixed basis order, `{"w": ..., "x": ..., "y": ...,
"z": ...}`.  Polynomial coefficient lists run low to high.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInput
from .modules import EigenTuple, ModulePresentation, RootNotFound
from .mpoly import CommutingPoint, MPoly, RabinowitschCertificate
from .scalars import Quat
from .upoly import Isolated, RootClass, UPoly


def rat_to_json(r: Fraction) -> str:
    return str(r)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat_from_json(text: str) -> Fraction:
    if not isinstance(text, str):
        raise InvalidInput(f"rational must be a string, got {text!r}")
    if not _RATIONAL.fullmatch(text):
        raise InvalidInput(f"bad rational {text!r}: expected -?digits(/digits)?")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InvalidInput(f"bad rational {text!r}") from exc


def quat_to_json(q: Quat) -> dict:
    return {
        "w": rat_to_json(q.w),
        "x": rat_to_json(q.x),
        "y": rat_to_json(q.y),
        "z": rat_to_json(q.z),
    }


def quat_from_json(obj: dict) -> Quat:
    if not isinstance(obj, dict):
        raise InvalidInput(f"quaternion must be an object, got {obj!r}")
    try:
        return Quat(*(rat_from_json(obj[key]) for key in ("w", "x", "y", "z")))
    except KeyError as exc:
        raise InvalidInput(f"quaternion object missing field {exc}") from exc


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
