"""Per-layer spans and counters taken from outside psop.

The tracer replaces public functions of psop's modules with wrappers, and
also every name another psop module bound to them with `from .x import f`,
so internal calls pass through the wrappers too.  `uninstall` puts the
originals back.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals: the sweeps' thread pool runs
children of one map_cells span side by side).  Spans keep only running
totals; nothing is written until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter

# module -> functions timed as spans ("Class.method" for methods)
SPANS = {
    "symbols": ["convolve", "ConvPowerTable.power", "prefix", "float_prefix",
                "abs_upper_prefix", "Symbol.__post_init__", "conv_power",
                "conv_power_binary", "ell1_norm", "membership_check"],
    "spaces": ["tail_majorant", "seminorm", "SpaceSpec.log_weights",
               "fit_dual_certificate", "nuclearity_check"],
    "operators": ["hat_column_log_norms", "check_column_log_norms",
                  "symbol_log_norm_bounds", "hat_apply", "check_apply",
                  "toeplitz_apply", "compute_orbit", "make_hat_operator",
                  "make_check_operator"],
    "classify": ["classify_hat_topologizable", "classify_hat_m_top",
                 "classify_hat_power_bounded_finite",
                 "classify_hat_power_bounded_infinite", "classify_check_all",
                 "classify_toeplitz", "strongly_tame_probe"],
    "oracle": ["replay_verdict", "dense_apply", "dense_power"],
    "laurent": ["laurent_coeffs", "symbol_split", "toeplitz_from_function"],
    "numerics": ["sum_exp", "map_cells"],
    "verification": ["sweep_hat_power_bound", "sweep_dual_column_bound",
                     "sweep_tame_bounds"],
    "cli": ["JobConfig.parse", "run", "Report.to_json"],
}
# called too often to time every call: counted only
COUNTED = {"symbols": ["coeff"], "spaces": ["GeometricEnvelope.at"]}
VERDICT_STATUSES = ("holds", "fails", "inconclusive")
# counters set by the wrappers' result hooks
EXTRA = ["classify.verdicts." + s for s in VERDICT_STATUSES] + \
    ["oracle.replay_verdict.rejected", "cli.report_bytes"]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, names in SPANS.items():
        for qual in names:
            out.append((f"{module}.{qual}.calls", "count"))
            out.append((f"{module}.{qual}.self_s", "s"))
    out.append(("numerics.map_cells.total_s", "s"))
    for module, names in COUNTED.items():
        out.extend((f"{module}.{qual}.calls", "count") for qual in names)
    out.extend((name, "bytes" if name.endswith("bytes") else "count") for name in EXTRA)
    out.append(("classify.decisive_ratio", "ratio"))
    return out


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    if len(intervals) == 1:
        s, e = intervals[0]
        return e - s
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + cur_e - cur_s


class _Count:
    """Thread-safe call counter: next() on itertools.count is one C call."""

    def __init__(self):
        self._it = itertools.count()
        self._reads = 0
        self.hit = self._it.__next__

    def value(self) -> int:
        v = next(self._it) - self._reads
        self._reads += 1
        return v


def _resolve(module, qual):
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, ps):
        self.ps = ps
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: dict[str, list] = {}          # name -> [calls, self_s, total_s]
        self._counts: dict[str, _Count] = {}
        self._extra: Counter = Counter()
        self._patches: list = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrapped = {}                               # id(original) -> (original, wrapper)
        for module_name, names in SPANS.items():
            for qual in names:
                self._patch(module_name, qual, wrapped, counted=False)
        for module_name, names in COUNTED.items():
            for qual in names:
                self._patch(module_name, qual, wrapped, counted=True)
        for mod in [self.ps.package] + [getattr(self.ps, m) for m in SPANS]:
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _patch(self, module_name, qual, wrapped, counted) -> None:
        owner, attr = _resolve(getattr(self.ps, module_name), qual)
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        name = f"{module_name}.{qual}"
        if counted:
            wrapper = self._counter(name, fn)
        else:
            wrapper = self._span(name, fn, self._hook(module_name, qual),
                                 adopt=(name == "numerics.map_cells"))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod)
                else wrapper)
        self._patches.append((owner, attr, raw))
        wrapped[id(fn)] = (fn, wrapper)

    def _hook(self, module_name, qual):
        if module_name == "classify":
            return self._count_verdicts
        if qual == "replay_verdict":
            return self._count_replay
        if qual == "Report.to_json":
            return self._count_report
        return None

    # -- wrappers ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self, name, fn):
        hit = self._counts.setdefault(name, _Count()).hit

        def wrapper(*args, **kwargs):
            hit()
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, hook, adopt):
        stats = self._spans.setdefault(name, [0, 0.0, 0.0])
        clock, lock, stack_of = time.perf_counter, self._lock, self._stack
        # classifiers call each other, and laurent calls classify_toeplitz:
        # verdicts count once, at the outermost classifier
        classifier = name.startswith("classify.")

        def wrapper(*args, **kwargs):
            stack = stack_of()
            report = hook is not None and not (
                classifier and any(f[2] for f in stack))
            frame = (clock(), [], classifier)
            stack.append(frame)
            ok = False
            try:
                if adopt:
                    args = (self._adopted(frame, args[0]),) + args[1:]
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                start, children, _ = frame
                if stack:
                    stack[-1][1].append((start, end))
                covered = _covered(children)
                with lock:
                    stats[0] += 1
                    stats[1] += (end - start) - covered
                    stats[2] += end - start
                if report:
                    hook(result if ok else None, ok)
            return result
        return wrapper

    def _adopted(self, frame, fn):
        """Run pool cells with the map_cells span as their parent."""
        stack_of = self._stack

        def run(cell):
            stack = stack_of()
            stack.append(frame)
            try:
                return fn(cell)
            finally:
                stack.pop()
        return run

    # -- result hooks ----------------------------------------------------------

    def _count_verdicts(self, result, ok) -> None:
        if not ok:
            return
        if isinstance(result, dict):
            found = list(result.values())
        elif hasattr(result, "verdict"):          # TameReport
            found = [result.verdict]
        else:
            found = [result]
        with self._lock:
            for v in found:
                status = getattr(getattr(v, "status", None), "value", None)
                if status in VERDICT_STATUSES:
                    self._extra["classify.verdicts." + status] += 1

    def _count_replay(self, result, ok) -> None:
        if not ok or result is not True:
            with self._lock:
                self._extra["oracle.replay_verdict.rejected"] += 1

    def _count_report(self, result, ok) -> None:
        if ok:
            with self._lock:
                self._extra["cli.report_bytes"] += len(result.encode("utf-8"))

    # -- reading -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current totals by metric name."""
        out = {}
        with self._lock:
            for name, (calls, self_s, total_s) in self._spans.items():
                out[name + ".calls"] = calls
                out[name + ".self_s"] = self_s
                if name == "numerics.map_cells":
                    out[name + ".total_s"] = total_s
            for name in EXTRA:
                out[name] = self._extra[name]
        for name, count in self._counts.items():
            out[name + ".calls"] = count.value()
        return out
