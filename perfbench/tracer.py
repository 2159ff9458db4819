"""Spans around the calls into each quatca module, recorded from outside.

`Tracer.install` wraps every public function of the kernel modules (and the
hot methods of `Quat`, `UPoly` and `MPoly`) and rebinds the name in every
quatca module that imported it, so calls between modules are seen too.
Each span has a name, start, end, parent and operation id; a span's self
time is its duration minus that of its child spans.  Spans stay in memory
and are written out by `write`.  Quaternion arithmetic runs millions of
times per run, so its spans are counted and timed but not stored.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# Modules whose public functions are wrapped; the span prefix is the layer.
MODULES = (
    "scalars", "linalg", "ratfactor", "intmath", "upoly", "ratexpr",
    "mpoly", "modules", "parsing", "serde",
)
METHODS = {
    ("scalars", "Quat"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "inverse", "norm", "conjugate", "__pow__",
    ),
    ("upoly", "UPoly"): ("divmod_right", "divmod_left"),
    ("mpoly", "MPoly"): ("__mul__",),
}
UNSTORED = ("scalars.Quat.", "mpoly.grlex_key")
SPAN_CAP = 100_000

# linalg.rref calls are split by system height: the 4-row scalar solves,
# mid-sized lclm and module systems, and large certificate systems.
RREF_MID_ROWS = 5
RREF_BIG_ROWS = 65


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = -1
        self.rref = {"entries": 0, "nonzero": 0, "max_rows": 0, "max_cols": 0}
        self.incomplete_inputs: list[tuple] = []
        self.leftover_degree = 0
        self.root_not_found = 0
        self._undo: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, label=None, after=None):
        keep = not name.startswith(UNSTORED)
        tracer = self

        def traced(*args, **kwargs):
            span_name = label(args) if label else name
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                tracer.calls[span_name] += 1
                tracer.self_s[span_name] += duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                if keep:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, span_name, start, end, parent, tracer.op))
                    else:
                        tracer.dropped += 1
            if after:
                after(args, result)
            return result

        return traced

    def _rref_label(self, args):
        rows = args[0]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        stats = self.rref
        stats["entries"] += nrows * ncols
        stats["nonzero"] += sum(1 for row in rows for v in row if v)
        stats["max_rows"] = max(stats["max_rows"], nrows)
        stats["max_cols"] = max(stats["max_cols"], ncols)
        if nrows < RREF_MID_ROWS:
            return "linalg.rref_4row"
        return "linalg.rref_mid" if nrows < RREF_BIG_ROWS else "linalg.rref_big"

    def install(self):
        """Wrap the kernel; `uninstall` puts every original back."""
        kernel = {name: mod for name, mod in sys.modules.items()
                  if name == "quatca" or name.startswith("quatca.")}
        replacements = {}
        for layer in MODULES:
            mod = kernel[f"quatca.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replacements[fn] = self._wrapper_for(f"{layer}.{attr}", fn)
        cli = kernel.get("quatca.cli")
        if cli is not None:
            replacements[cli.main] = self.wrap("cli.main", cli.main)
        for mod in kernel.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacements[value])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(kernel[f"quatca.{layer}"], cls_name)
            for attr in methods:
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", original))

    def _wrapper_for(self, name, fn):
        if name == "linalg.rref":
            return self.wrap(name, fn, label=self._rref_label)
        if name == "ratfactor.factor_central":
            def after(args, result):
                self.leftover_degree += result.leftover_degree
                if not result.complete:
                    self.incomplete_inputs.append(tuple(args[0]))
            return self.wrap(name, fn, after=after)
        if name == "modules.find_eigen_tuple":
            def after(args, result):
                if type(result).__name__ == "RootNotFound":
                    self.root_not_found += 1
            return self.wrap(name, fn, after=after)
        return self.wrap(name, fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def calls_of(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def self_of(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))

    def layer_metrics(self, is_budget_miss) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, with their units."""
        c = self.calls_of
        t = self.self_of
        rref = self.rref
        entries = rref["entries"]
        count, secs = "count", "s"
        return {
            "scalars.quat_mul.calls": (c("scalars.Quat.__mul__", "scalars.Quat.__rmul__"), count),
            "scalars.quat_inverse.calls": (c("scalars.Quat.inverse"), count),
            "scalars.quat_arith.self_s": (t("scalars.Quat"), secs),
            "scalars.linear_solve.calls": (c("scalars.left_linear_solve", "scalars.right_linear_solve"), count),
            "scalars.linear_solve.self_s": (t("scalars.left_linear_solve") + t("scalars.right_linear_solve"), secs),
            "linalg.rref.calls": (c("linalg.rref_4row", "linalg.rref_mid", "linalg.rref_big"), count),
            "linalg.rref.entries": (entries, count),
            "linalg.rref.nonzero_share": (rref["nonzero"] / entries if entries else 0.0, "ratio"),
            "linalg.rref.max_rows": (rref["max_rows"], count),
            "linalg.rref.max_cols": (rref["max_cols"], count),
            "linalg.rref_4row.self_s": (t("linalg.rref_4row"), secs),
            "linalg.rref_mid.self_s": (t("linalg.rref_mid"), secs),
            "linalg.rref_big.self_s": (t("linalg.rref_big"), secs),
            "ratfactor.factor_central.calls": (c("ratfactor.factor_central"), count),
            "ratfactor.factor_central.self_s": (t("ratfactor.factor_central"), secs),
            "ratfactor.incomplete": (len(self.incomplete_inputs), count),
            "ratfactor.budget_misses": (sum(map(is_budget_miss, self.incomplete_inputs)), count),
            "ratfactor.leftover_degree.sum": (self.leftover_degree, count),
            "intmath.three_squares.calls": (c("intmath.three_squares"), count),
            "intmath.three_squares.self_s": (t("intmath.three_squares"), secs),
            "upoly.right_roots.self_s": (t("upoly.right_roots"), secs),
            "upoly.divmod.calls": (c("upoly.UPoly.divmod_right", "upoly.UPoly.divmod_left"), count),
            "upoly.divmod.self_s": (t("upoly.UPoly.divmod_right") + t("upoly.UPoly.divmod_left"), secs),
            "upoly.lclm.calls": (c("upoly.lclm"), count),
            "upoly.lclm.self_s": (t("upoly.lclm"), secs),
            "upoly.root_space.self_s": (t("upoly.root_space"), secs),
            "upoly.wedderburn_lclm.calls": (c("upoly.wedderburn_lclm"), count),
            "ratexpr.eval_expr.calls": (c("ratexpr.eval_expr"), count),
            "ratexpr.eval_expr.self_s": (t("ratexpr.eval_expr"), secs),
            "mpoly.mul.calls": (c("mpoly.MPoly.__mul__"), count),
            "mpoly.mul.self_s": (t("mpoly.MPoly.__mul__"), secs),
            "mpoly.rabinowitsch_check.self_s": (t("mpoly.rabinowitsch_check"), secs),
            "mpoly.reduce_mod_point.calls": (c("mpoly.reduce_mod_point"), count),
            "modules.find_eigen_tuple.calls": (c("modules.find_eigen_tuple"), count),
            "modules.find_eigen_tuple.self_s": (t("modules.find_eigen_tuple"), secs),
            "modules.annihilator_minpoly.calls": (c("modules.annihilator_minpoly"), count),
            "modules.root_not_found": (self.root_not_found, count),
            "parsing.self_s": (t("parsing"), secs),
            "serde.self_s": (t("serde"), secs),
            "cli.main.self_s": (t("cli.main"), secs),
        }

    def layer_shares(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix)."""
        shares: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            shares[name.split(".")[0]] += secs
        return dict(shares)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
