"""Benchmark for psop, run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,exact,jobs} --seed N \\
        --seconds S --trace {0,1}

A run imports psop from ./src and builds the workload's seeded inputs
SETUP_REPEATS times (setup_s is the median), runs one untimed check pass that
compares every output with the benchmark's own computations, then repeats
timed passes for S seconds.  Every timed pass must reproduce the check
pass's outputs exactly.  The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See README.md for the metrics, the workloads and the reference figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PSOP_MODULES = ("numerics", "spaces", "symbols", "operators", "classify",
                "laurent", "oracle", "verification", "cli")
SETUP_REPEATS = 21
MIN_PASSES = 3

import reference as ref  # noqa: E402
from common import Op, Workload  # noqa: E402
from exact import ExactWorkload  # noqa: E402
from jobs import JobsWorkload  # noqa: E402
from sweep import SweepWorkload  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = {w.name: w for w in (SweepWorkload, ExactWorkload, JobsWorkload)}


class MissingProgram(RuntimeError):
    """The checkout holds no psop sources to benchmark."""


def import_psop() -> SimpleNamespace:
    """A fresh import of psop from ./src: earlier imports are dropped first,
    so every setup repetition pays the whole import."""
    if not (SRC / "psop" / "__init__.py").is_file():
        raise MissingProgram(f"no psop package under {SRC}")
    for name in [m for m in sys.modules if m == "psop" or m.startswith("psop.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("psop")
    if Path(package.__file__).resolve().parent != SRC / "psop":
        raise MissingProgram(f"psop imported from {package.__file__}, not {SRC}")
    mods = {m: importlib.import_module("psop." + m) for m in PSOP_MODULES}
    return SimpleNamespace(package=package, **mods)


class Run:
    """Counts, checks and timings of one benchmark run."""

    def __init__(self, workload: Workload):
        self.wl = workload
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.first: list = []          # check-pass fingerprints (None: failed)
        self.decisive = 0

    def _error(self, msg: str) -> None:
        self.correct = False
        print("CHECK FAILED: " + msg, file=sys.stderr)

    def _execute(self, op: Op):
        t0 = time.perf_counter()
        try:
            result, exc = op.run(), None
        except Exception as e:     # counted as failed; unexpected ones fail the run
            result, exc = None, e
        return time.perf_counter() - t0, result, exc

    def _failure(self, op: Op, exc: Exception) -> None:
        self.failed += 1
        if not (op.fault and self.wl.fault_matches(op, exc)):
            self._error(f"{op.label}: unexpected {type(exc).__name__}: {exc}\n"
                        + "".join(traceback.format_exception(exc)))

    def check_pass(self) -> None:
        for op in self.wl.ops:
            self.attempted += 1
            _, result, exc = self._execute(op)
            if exc is not None:
                self._failure(op, exc)
                self.first.append(None)
                continue
            try:
                self.wl.check(op, result)
                self.decisive += self.wl.decisive(op, result)
                self.first.append(self.wl.fingerprint(op, result))
            except ref.CheckFailed as e:
                self._error(str(e))
                self.first.append(None)

    def timed_pass(self) -> list[float]:
        """Runs every operation once; returns the operation times."""
        times = []
        for i, op in enumerate(self.wl.ops):
            self.attempted += 1
            dt, result, exc = self._execute(op)
            times.append(dt)
            if exc is not None:
                self._failure(op, exc)
                if self.first[i] is not None:
                    self._error(f"{op.label}: failed after succeeding on the check pass")
                continue
            try:
                if self.first[i] is None:
                    raise ref.CheckFailed(f"{op.label}: succeeded after failing "
                                          "on the check pass")
                self.wl.compare(op, self.first[i], self.wl.fingerprint(op, result))
            except ref.CheckFailed as e:
                self._error(str(e))
        return times

    def timed_passes(self, seconds: float) -> list[list[float]]:
        """Whole passes for `seconds`: a pass starts only if the last one
        fits in the time left (at least MIN_PASSES passes)."""
        passes: list[list[float]] = []
        t_start = time.perf_counter()
        last = 0.0
        while len(passes) < MIN_PASSES or \
                time.perf_counter() - t_start + last <= seconds:
            t0 = time.perf_counter()
            passes.append(self.timed_pass())
            last = time.perf_counter() - t0
        return passes


def per_op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes: a burst of machine
    noise slows a stretch of one pass, not the same operation in most."""
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(passes, setups, decisive) -> dict:
    per_op = per_op_medians(passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (statistics.quantiles(per_op, n=10)[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "decisive_verdicts": (decisive, "count"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    """Untraced passes for half the time, then a traced build of the inputs
    and traced passes for the other half.  Values cover one build plus one
    pass (the mean over the traced passes)."""
    untraced = run.timed_passes(seconds / 2)
    tr = tracing.Tracer(run.wl.ps)
    tr.install()
    try:
        run.wl.build()
        at_setup = tr.snapshot()
        traced = run.timed_passes(seconds / 2)
        at_end = tr.snapshot()
    finally:
        tr.uninstall()
    n = len(traced)
    out = {}
    for name, unit in tracing.metric_names():
        if name == "classify.decisive_ratio":
            continue
        setup_part = at_setup.get(name, 0)
        value = setup_part + (at_end.get(name, 0) - setup_part) / n
        out[name] = (value, unit)
    issued = sum(out[f"classify.verdicts.{s}"][0] for s in tracing.VERDICT_STATUSES)
    decisive = issued - out["classify.verdicts.inconclusive"][0]
    out["classify.decisive_ratio"] = (decisive / issued if issued else 0.0, "ratio")
    wall_untraced = sum(per_op_medians(untraced))
    wall_traced = sum(per_op_medians(traced))
    out["trace.wall_s"] = (wall_traced, "s")
    out["trace.untraced_wall_s"] = (wall_untraced, "s")
    out["trace.overhead_ratio"] = (wall_traced / wall_untraced, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outdir = BENCH_DIR / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()     # each setup starts with no earlier setup's garbage
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](import_psop(), args.seed, outdir)
            wl.build()
            setups.append(time.perf_counter() - t0)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = Run(wl)
    run.check_pass()
    # the check pass's reference data and fingerprints stay alive for the
    # whole run; keep them out of the collector's way during the timed passes
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics = per_layer(run, args.seconds)
        (outdir.parent / f"trace-{args.workload}.json").write_text(json.dumps(
            {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            indent=1) + "\n")
    else:
        passes = run.timed_passes(args.seconds)
        metrics = end_to_end(passes, setups, run.decisive)
        print(f"{'pass times':48s} {' '.join(f'{sum(p):.3f}' for p in passes)} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
