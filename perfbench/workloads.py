"""The three workloads: how an instance becomes a quatca call, what counts as
a definitive answer, and how the answer is put in plain form for checking.

Operations look quatca functions up on their modules at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from . import checks, gen


def _quat(qc, a):
    return qc.Quat(*a)


def _upoly(qc, p):
    return qc.UPoly([qc.Quat(*c) for c in p])


def _mpoly(qc, p, nvars):
    return qc.MPoly(nvars, {e: qc.Quat(*c) for e, c in p.items()})


def _plain_mpoly(p):
    return {e: c.coords() for e, c in p.terms.items()}


class Workload:
    """Instances flattened in run order; `blocks` lists their indices."""

    def __init__(self, qc, instance_blocks, workdir):
        self.qc = qc
        self.workdir = workdir
        self.instances = []
        self.blocks = []
        for block in instance_blocks:
            self.blocks.append(list(range(len(self.instances), len(self.instances) + len(block))))
            self.instances.extend(block)
        self.calls = [self.prepare(inst["kind"], inst["data"], k) for k, inst in enumerate(self.instances)]

    def warmup(self):
        raise NotImplementedError

    def prepare(self, kind, data, index):
        """A zero-argument callable that runs the instance."""
        raise NotImplementedError

    def plain(self, raw):
        """The answer as plain, comparable data."""
        return raw

    def answered(self, kind, answer) -> bool:
        raise NotImplementedError

    def check(self, kind, data, answer) -> list[str]:
        raise NotImplementedError


class Roots(Workload):
    """right_roots, then root_space at every isolated root and
    roots_in_centralizer when a sphere class appears."""

    def warmup(self):
        self.op(self.qc.UPoly.from_central([-2, 0, 1]))

    def op(self, p):
        qc = self.qc
        classes, status = qc.right_roots(p)
        spaces = {c.a: qc.root_space(p, c.a) for c in classes if isinstance(c, qc.Isolated)}
        members = None
        if any(isinstance(c, qc.Sphere) for c in classes):
            members, _ = qc.upoly.roots_in_centralizer(p, qc.Centralizer.full(), side="right")
        return classes, status, spaces, members

    def prepare(self, kind, data, index):
        p = _upoly(self.qc, data["poly"])
        return lambda: self.op(p)

    def plain(self, raw):
        classes, status, spaces, members = raw
        out = []
        for c in classes:
            if isinstance(c, self.qc.Isolated):
                out.append(("isolated", c.a.coords()))
            else:
                out.append(("sphere", c.t, c.n))
        return {
            "classes": out,
            "complete": status == self.qc.RootSearchStatus.COMPLETE,
            "spaces": {a.coords(): [r.coords() for r in b.basis] for a, b in spaces.items()},
            "members": [m.coords() for m in members or ()],
        }

    def answered(self, kind, answer):
        return answer["complete"]

    def check(self, kind, data, answer):
        return checks.check_roots(
            data, answer["classes"], answer["complete"], answer["spaces"], answer["members"]
        )


class Certificates(Workload):
    """rabinowitsch_check at one power, or find_certificate up to a power."""

    def warmup(self):
        qc = self.qc
        xi = qc.MPoly.variable(0, 1) - qc.MPoly.constant(qc.Quat(0, 1), 1)
        qc.rabinowitsch_check(qc.LeftIdeal((xi * xi,)), xi, qc.Quat(0, 0, 1), 1, 1)

    def prepare(self, kind, data, index):
        qc = self.qc
        nvars = data["nvars"]
        ideal = qc.point_ideal(qc.CommutingPoint([_quat(qc, c) for c in data["point"]]))
        p = _mpoly(qc, data["p"], nvars)
        a = _quat(qc, data["a"])
        N, degbound = data["N"], data["degbound"]
        if data["mode"] == "find":
            return lambda: qc.find_certificate(ideal, p, a, N, degbound)
        return lambda: qc.rabinowitsch_check(ideal, p, a, N, degbound)

    def plain(self, raw):
        if isinstance(raw, self.qc.NotFoundWithinBounds):
            return ("not-found",)
        cert = raw[1] if isinstance(raw, tuple) else raw
        n = raw[0] if isinstance(raw, tuple) else cert.N
        return ("found", n, [[_plain_mpoly(h) for h in row] for row in cert.cofactors])

    def answered(self, kind, answer):
        return True  # a verified certificate or an exact NotFoundWithinBounds

    def check(self, kind, data, answer):
        return checks.check_certificate(data, answer)


class Queries(Workload):
    """One-shot `quatca --json ...` requests through `cli.main`, in process."""

    def warmup(self):
        self.run(["roots", "--poly", "x^2 - 2"])

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.qc.cli.main(["--json", *argv])
        return code, out.getvalue()

    def prepare(self, kind, data, index):
        argv = list(data["argv"])
        if kind == "eigen":
            path = os.path.join(self.workdir, f"module-{index}.json")
            with open(path, "w") as fh:
                json.dump(gen.module_json(data["module"]), fh)
            argv.append(f"--module={path}")
        return lambda: self.run(argv)

    def answered(self, kind, answer):
        code, text = answer
        if code != 0:
            return False
        status = json.loads(text)["status"]
        return status == "ok" or (kind == "rabinowitsch" and status == "not-found")

    def check(self, kind, data, answer):
        code, text = answer
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_report(kind, data, json.loads(text))


WORKLOADS = {"queries": Queries, "roots": Roots, "certificates": Certificates}
