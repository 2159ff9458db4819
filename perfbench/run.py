"""quatca benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload roots --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload certificates --trace 1  # per-layer

The program is imported from `src/` next to this directory.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`).  The exit code is 0 only when every answer checked out.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, ROOT)

from perfbench import checks, gen, micro, qarith  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh interpreters besides the main one.
SETUP_PROBES = 4
PASSES = 2
# The first pass runs at least this many blocks, whatever the time.
MIN_BLOCKS = 2
TAIL_BEYOND = 10

# Timings are reported at a reference speed.  The shared host this was
# built on runs the same Python code up to 2x slower for seconds or minutes
# at a time.  A fixed piece of Fraction arithmetic (the kind of work quatca
# does) is timed before every operation; each operation's time is scaled
# by CAL_REF_S over the median calibration time of the CAL_WINDOW
# operations on either side.  CAL_REF_S is the calibration loop's time on
# that host when it is not contended.
CAL_REF_S = 2.0e-4
CAL_WINDOW = 25


def calibration_loop():
    acc, step = Fraction(0), Fraction(1, 3)
    for i in range(60):
        acc = acc * step + Fraction(i % 7 + 1, i % 5 + 2)
    return acc


def time_calibration() -> float:
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start


def speed_factor(samples) -> float:
    """How much slower than the reference speed the host currently runs."""
    return statistics.median(samples) / CAL_REF_S


def load_quatca():
    """Import quatca from this checkout's src/, and nowhere else."""
    package = os.path.join(SRC, "quatca")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no quatca source at {package}")
    sys.path.insert(0, SRC)
    import quatca
    import quatca.cli  # noqa: F401  (the queries workload calls cli.main)

    if os.path.dirname(os.path.abspath(quatca.__file__)) != package:
        raise SystemExit(f"error: imported quatca from {quatca.__file__}, not {package}")
    return quatca


def set_up(workload, blocks, workdir):
    """Import, build the quatca objects, run one warm-up operation; returns
    the workload and the set-up time at the reference speed."""
    factor = speed_factor([time_calibration() for _ in range(2 * CAL_WINDOW + 1)])
    start = perf_counter()
    qc = load_quatca()
    wl = WORKLOADS[workload](qc, blocks, workdir)
    wl.warmup()
    return wl, (perf_counter() - start) / factor


def probe_setup(workload, seed) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """Closed loop, one client: each operation starts after the previous one
    returns.

    A timed run makes PASSES passes over the same blocks, spread out in
    time, and the latency metrics use each instance's mean scaled time.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first = {}      # instance index -> plain answer of its first run
        self.errors = {}     # instance index -> traceback text
        self.attempts = []   # (instance index, seconds, ok)
        self.calibrations = []  # calibration seconds, one per attempt

    def first_pass(self, seconds) -> list[int]:
        """Whole blocks until `seconds` of operation time (at least
        MIN_BLOCKS); returns the blocks run."""
        blocks, busy = [], 0.0
        while (busy < seconds or len(blocks) < MIN_BLOCKS) and len(blocks) < len(self.wl.blocks):
            blocks.append(len(blocks))
            busy += self.execute(blocks[-1:])
        return blocks

    def timed(self, seconds) -> list[int]:
        """The passes of a timed run; returns the blocks they covered."""
        blocks = self.first_pass(seconds / PASSES)
        for _ in range(PASSES - 1):
            self.execute(blocks)
        return blocks

    def execute(self, blocks, tracer=None) -> float:
        """Run the blocks once; returns the operation time spent."""
        wl, busy = self.wl, 0.0
        for b in blocks:
            for idx in wl.blocks[b]:
                if tracer:
                    tracer.op = len(self.attempts)
                self.calibrations.append(time_calibration())
                start = perf_counter()
                try:
                    raw, raised = wl.calls[idx](), False
                except Exception:
                    raised = True
                    self.errors.setdefault(idx, traceback.format_exc())
                elapsed = perf_counter() - start
                busy += elapsed
                ok = not raised and self._same_as_first(idx, wl.plain(raw))
                self.attempts.append((idx, elapsed, ok))
        return busy

    def _same_as_first(self, idx, answer) -> bool:
        if self.first.setdefault(idx, answer) == answer:
            return True
        self.errors.setdefault(idx, "answer differs between repeats")
        return False

    def scaled(self) -> list[float]:
        """Each attempt's time at the reference speed."""
        cal = self.calibrations
        return [
            secs / speed_factor(cal[max(0, k - CAL_WINDOW): k + CAL_WINDOW + 1])
            for k, (_, secs, _) in enumerate(self.attempts)
        ]

    def latencies(self) -> list[float]:
        """Each instance's mean attempt time, at the reference speed."""
        per: dict[int, list[float]] = {}
        for (idx, _, _), secs in zip(self.attempts, self.scaled()):
            per.setdefault(idx, []).append(secs)
        return [statistics.fmean(v) for v in per.values()]

    def check(self) -> dict[int, list[str]]:
        """Independent checks, once per distinct instance."""
        problems = {idx: [text.strip().splitlines()[-1]] for idx, text in self.errors.items()}
        for idx, answer in self.first.items():
            inst = self.wl.instances[idx]
            try:
                bad = self.wl.check(inst["kind"], inst["data"], answer)
            except Exception:
                bad = ["checker raised: " + traceback.format_exc().strip().splitlines()[-1]]
            if bad:
                problems.setdefault(idx, []).extend(bad)
        return problems

    def tallies(self, problems):
        attempted = len(self.attempts)
        failed = sum(1 for idx, _, ok in self.attempts if not ok or idx in problems)
        answered = 0
        for idx, _, ok in self.attempts:
            if ok and idx not in problems:
                answered += self.wl.answered(self.wl.instances[idx]["kind"], self.first[idx])
        return attempted, failed, answered


def latency_summary(seconds_list):
    ordered = sorted(seconds_list)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    pct = 100.0 * (k + 1) / n
    return statistics.median(ordered) * 1e3, ordered[k] * 1e3, pct, n


def incomplete_kinds(run) -> tuple[int, int]:
    """(budget misses, field limits) among incomplete root searches, per
    attempt, by the sympy oracle on the same companion polynomial."""
    verdict = {}
    budget = field = 0
    for idx, _, ok in run.attempts:
        answer = run.first.get(idx)
        if not ok or not isinstance(answer, dict) or answer["complete"]:
            continue
        if idx not in verdict:
            poly = run.wl.instances[idx]["data"]["poly"]
            verdict[idx] = checks.oracle_split(qarith.companion(poly))
        budget += verdict[idx]
        field += not verdict[idx]
    return budget, field


def print_problems(run, problems, limit=5):
    for idx in sorted(problems)[:limit]:
        inst = run.wl.instances[idx]
        print(f"FAILED {inst['kind']} #{idx}: {'; '.join(problems[idx])}")
    if len(problems) > limit:
        print(f"... and {len(problems) - limit} more failing instances")


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    blocks = gen.generate(args.workload, args.seed)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            _, secs = set_up(args.workload, blocks, workdir)
            print(repr(secs))
            return 0
        if args.trace:
            return traced(args, blocks, workdir)
        return untraced(args, blocks, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def header(args, wl, blocks):
    print(f"workload {args.workload}  seed {args.seed}  instances {len(wl.instances)} "
          f"({len(blocks)} blocks of {len(blocks[0])})  instance-set hash {gen.instance_hash(blocks)}")


def untraced(args, blocks, workdir) -> int:
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl, own_setup = set_up(args.workload, blocks, workdir)
    setups = probes + [own_setup]
    run = Run(wl)
    blocks_run = run.timed(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = run.check()
    attempted, failed, answered = run.tallies(problems)
    lat = run.latencies()
    p50, tail, pct, n = latency_summary(lat)
    slowdown = speed_factor(run.calibrations)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(n / sum(lat), "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "answered_ratio": metric(answered / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    header(args, wl, blocks)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (import, build, warm-up)",
        "ops_per_s": f"{n} instances in {len(blocks_run)} blocks, {PASSES} passes each",
        "latency_p50_ms": f"host ran at 1/{slowdown:.2f} of the reference speed",
        "latency_tail_ms": f"p{pct:.1f}: {TAIL_BEYOND} of {n} instances lie beyond it",
        "answered_ratio": f"{answered} definitive of {attempted}",
    }
    for name, m in metrics.items():
        print(f"  {name:16s} {m['value']:12.4f} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':16s} {failed / attempted:12.4f} {'ratio':6s} {failed} of {attempted}")
    if args.workload == "roots":
        budget, field = incomplete_kinds(run)
        print(f"  incomplete answers: {budget} budget misses, {field} field limits (sympy oracle)")
    print_problems(run, problems)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def traced(args, blocks, workdir) -> int:
    """An untraced pass over half the run time, then the same blocks traced."""
    wl, _ = set_up(args.workload, blocks, workdir)
    run = Run(wl)
    blocks_run = run.first_pass(args.seconds / 2)
    untraced_ops = len(run.attempts)
    tracer = Tracer()
    tracer.install()
    try:
        traced_busy = run.execute(blocks_run, tracer=tracer)
    finally:
        tracer.uninstall()
    scaled = run.scaled()
    plain_s, traced_s = sum(scaled[:untraced_ops]), sum(scaled[untraced_ops:])
    problems = run.check()
    attempted, failed, _ = run.tallies(problems)

    oracle = {}

    def is_budget_miss(coeffs):
        if coeffs not in oracle:
            oracle[coeffs] = checks.oracle_split(list(coeffs))
        return oracle[coeffs]

    layer = tracer.layer_metrics(is_budget_miss)
    layer["trace.overhead_s"] = (traced_s - plain_s, "s")
    layer["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    layer.update(micro.micro_metrics(wl.qc))

    header(args, wl, blocks)
    print(f"  {len(blocks_run)} blocks: {traced_s:.2f} s traced vs {plain_s:.2f} s untraced"
          " (operation time at the reference speed)")
    shares = sorted(tracer.layer_shares().items(), key=lambda kv: -kv[1])
    print("  self time by layer: " + ", ".join(
        f"{name} {secs / traced_busy:.1%}" for name, secs in shares))
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:6]
    print("  top spans by self time: " + ", ".join(
        f"{name} {secs / traced_busy:.1%}" for name, secs in top))
    for name, (value, unit) in layer.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl")
    tracer.write(span_file)
    print(f"  {len(tracer.spans)} spans written to {os.path.relpath(span_file, ROOT)}"
          f" ({tracer.dropped} beyond the cap not kept)")
    print_problems(run, problems)
    metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"error: workload {name} printed no result")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quatca", "__init__.py")):
        print(f"error: no quatca source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
