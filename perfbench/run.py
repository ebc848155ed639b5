"""Benchmark for aqgv: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports aqgv from its src/.
With --trace 0 it runs the named workload untraced and prints the
end-to-end metrics; with --trace 1 it runs every workload, each both
untraced and traced, and prints the per-layer metrics and the tracing
overhead per workload.  The last line of stdout is one JSON object; the
exit code is 1 when an operation or a check failed.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Host speed drifts here by up to 2x within minutes, on both cores at once,
# and CPU time drifts with it.  So every timed interval is bracketed by a
# probe of fixed work, and is scaled to a host on which the probe takes its
# reference time (the probe's median on the reference machine).  In-process
# work is probed with a pure-Python loop; cold commands with a bare
# interpreter start, whose drift the loop does not follow.
LOOP_REF_S = 0.0025
BARE_START_REF_S = 0.075


def loop_s():
    """Seconds taken by a fixed piece of pure-Python work: tuples, modular
    arithmetic, generator expressions and a dict, as in aqgv's kernels."""
    start = time.perf_counter()
    seen = {}
    for i in range(600):
        row = tuple((i * j + 1) % 7 for j in range(12))
        seen[row] = sum(1 for x in row if x)
    return time.perf_counter() - start


class HostClock:
    """Times calls, scaled by ref_s / (mean of the probes either side).
    The probe after one call also serves as the probe before the next."""

    def __init__(self, probe, ref_s):
        self.probe = probe
        self.ref_s = ref_s
        self.last = None

    def timed(self, fn, *args):
        before = self.probe() if self.last is None else self.last
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            took = time.perf_counter() - start
            self.last = self.probe()
        return out, took * 2 * self.ref_s / (before + self.last)


def bare_start_s():
    """Seconds a bare interpreter takes to start and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def clock_for(name):
    """The cli workload's time goes mostly to cold commands; the others' to
    in-process work."""
    if name == "cli":
        return HostClock(bare_start_s, BARE_START_REF_S)
    return HostClock(loop_s, LOOP_REF_S)


def fresh_aqgv():
    """Import aqgv from src/ as a first import would: drop any loaded copy
    so module code and module-level caches start again."""
    for name in [m for m in sys.modules if m == "aqgv" or m.startswith("aqgv.")]:
        del sys.modules[name]
    aq = importlib.import_module("aqgv")
    if Path(aq.__file__).resolve().parent != SRC / "aqgv":
        raise ImportError(f"aqgv was imported from {aq.__file__}, not from {SRC}")
    return aq


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0            # scaled time inside operations, checks excluded
    durations: list = field(default_factory=list)   # of operations that passed
    observed: list = field(default_factory=list)

    def ops_per_s(self):
        return len(self.durations) / self.busy_s

    def p50_ms(self):
        return 1e3 * statistics.median(self.durations)


def run_round(wl, r, clock, phase, keep=False):
    for op in wl.round(r):
        gc.collect()
        try:
            out, took = clock.timed(wl.run, op)
        except Exception:  # an operation that raises has failed; keep running
            out, took, err = None, 0.0, traceback.format_exc()
        else:
            err = wl.check(op, out)
        phase.attempted += 1
        phase.busy_s += took
        if err:
            phase.failed += 1
            print(f"FAILED {wl.name} {op}: {err}", file=sys.stderr)
            continue
        phase.durations.append(took)
        if keep:
            phase.observed.append((op, out, took))


def setup(name, seed, tmp):
    """Import aqgv, make the inputs and run one untimed warm-up operation;
    returns (scaled seconds, workload)."""

    def steps():
        wl = WORKLOADS[name](fresh_aqgv(), seed, tmp)
        op = wl.warmup()
        return wl, op, wl.run(op)

    (wl, op, out), took = clock_for(name).timed(steps)
    err = wl.check(op, out)
    if err:
        raise RuntimeError(f"{name} warm-up operation failed: {err}")
    return took, wl


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def promise_holds(wl):
    err = wl.promise_error() if wl.name == "witness" else None
    if err:
        print(f"FAILED promise: {err}", file=sys.stderr)
    return err is None


def untraced(name, seed, seconds, tmp):
    times = []
    for _ in range(SETUP_REPEATS):
        took, wl = setup(name, seed, tmp)
        times.append(took)
    phase, clock = Phase(), clock_for(name)
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        run_round(wl, r, clock, phase)
        r += 1
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_p50_ms": (phase.p50_ms(), "ms"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    return promise_holds(wl), phase.attempted, phase.failed, metrics


def traced(seconds, seed, tmp):
    """Every workload for a quarter of ``seconds``.  Each round runs both
    untraced and traced, in alternating order, so the overhead compares
    the same operations at nearly the same time."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        _, wl = setup(name, seed, tmp)
        plain, phase, tracer, clock = Phase(), Phase(), tracing.Tracer(), clock_for(name)
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds / len(WORKLOADS):
            if r % 2:
                run_round(wl, r, clock, plain)
            remove = tracing.instrument(wl, tracer)
            try:
                run_round(wl, r, clock, phase, keep=True)
            finally:
                remove()
            if not r % 2:
                run_round(wl, r, clock, plain)
            r += 1
        correct &= promise_holds(wl)
        metrics.update(tracing.layer_metrics(wl, tracer, phase.attempted, phase.observed))
        metrics[f"trace.overhead_{name}_pct"] = (100.0 * (plain.ops_per_s() / phase.ops_per_s() - 1.0), "%")
        attempted += plain.attempted + phase.attempted
        failed += plain.failed + phase.failed
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description="aqgv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "aqgv" / "__init__.py").is_file():
        sys.exit(f"error: no aqgv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            correct, attempted, failed, metrics = traced(args.seconds, args.seed, Path(tmp))
        else:
            correct, attempted, failed, metrics = untraced(args.workload, args.seed, args.seconds, Path(tmp))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct and failed == 0 else 1)


if __name__ == "__main__":
    main()
