"""Batch front end: JSON job configs in, deterministic reports and CSV out.

One job per process.  Unknown config fields are rejected, not ignored, to
protect experiment provenance.  Reports are byte-deterministic for a fixed
config and library version: wall-clock timing lives in a sidecar file the
report only points to.

Exit codes: 0 success, 2 config error, 3 task error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .classify import (
    GridParams,
    UnsupportedSpace,
    Verdict,
    classify_operator,
    norm_mode,
)
from .laurent import (
    CertificateFitFailed,
    PoleOnContour,
    laurent_coeffs,
    rational_symbol,
    symbol_split,
    toeplitz_from_function,
)
from .numerics import fmt17
from .operators import (
    Element,
    OperatorContractError,
    OperatorSpec,
    basis_element,
    cesaro_mean,
    compute_orbit,
    element_from_symbol,
    make_check_operator,
    make_hat_operator,
    make_toeplitz_operator,
    matrix_csv,
    orbit_csv,
    toeplitz_matrix,
)
from .spaces import (
    ExponentSequence,
    SpaceSpec,
    SpaceType,
    TailUnbounded,
    explicit_alpha,
    linear_alpha,
    log_alpha,
    root_alpha,
)
from .symbols import OutOfSampledRange, Symbol, parse_symbol, zero_symbol
from .verification import SweepOutcome, run_suite

SCHEMA_VERSION = 1
# the largest dense matrix a classify job exports (2048^2 entries)
MAX_MATRIX_SIZE = 2048


class ConfigError(ValueError):
    """Schema violation or incompatible space/operator combination."""


class TaskError(RuntimeError):
    """A valid config whose task failed (unbounded tails, contour poles, ...)."""


# ---------------------------------------------------------------------------
# Config parsing (strict)
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")


def parse_alpha(obj: dict) -> ExponentSequence:
    _require_keys(obj, {"kind", "degree", "values", "extension"}, {"kind"},
                  "space.alpha")
    kind = obj["kind"]
    if kind == "explicit" and "values" not in obj:
        raise ConfigError("space.alpha: explicit kind needs values")
    try:
        if kind == "linear":
            return linear_alpha()
        if kind == "root":
            return root_alpha(int(obj.get("degree", 2)))
        if kind == "log":
            return log_alpha()
        if kind == "explicit":
            return explicit_alpha(obj["values"], obj.get("extension", "hold"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"space.alpha: {exc}") from exc
    raise ConfigError(f"space.alpha: unknown kind {kind!r}")


def parse_space(obj: dict) -> SpaceSpec:
    _require_keys(obj, {"type", "alpha"}, {"type"}, "space")
    t = obj["type"]
    if t not in ("finite", "infinite"):
        raise ConfigError(f"space.type must be finite|infinite, got {t!r}")
    alpha = parse_alpha(obj["alpha"]) if "alpha" in obj else linear_alpha()
    return SpaceSpec(SpaceType(t), alpha)


def parse_grid(obj: Optional[dict]) -> GridParams:
    if obj is None:
        return GridParams()
    _require_keys(obj, {"N", "K", "P", "Q"}, set(), "grid")
    base = GridParams()
    try:
        return GridParams(int(obj.get("N", base.N)), int(obj.get("K", base.K)),
                          int(obj.get("P", base.P)), int(obj.get("Q", base.Q)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


@dataclass(frozen=True)
class JobConfig:
    space: Optional[SpaceSpec]
    operator: Optional[dict]
    task: dict
    grid: GridParams
    formats: tuple[str, ...]
    raw: dict

    @staticmethod
    def parse(obj: dict) -> "JobConfig":
        _require_keys(obj, {"schema", "space", "operator", "task", "grid", "output"},
                      {"schema", "task"}, "config")
        if obj["schema"] != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {obj['schema']!r}")
        space = parse_space(obj["space"]) if "space" in obj else None
        operator = obj.get("operator")
        if operator is not None:
            _require_keys(operator, {"kind", "theta", "beta", "source"}, {"kind"},
                          "operator")
            if operator["kind"] not in ("hat", "check", "toeplitz"):
                raise ConfigError(f"operator.kind must be hat|check|toeplitz")
            for key in ("theta", "beta"):
                if key in operator and operator[key] is not None:
                    try:
                        parse_symbol(operator[key])
                    except ValueError as exc:
                        raise ConfigError(f"operator.{key}: {exc}") from exc
            if "source" in operator and operator["source"] is not None:
                src = operator["source"]
                _require_keys(src, {"rational", "radius", "window", "annulus"},
                              {"rational", "radius"}, "operator.source")
                _require_keys(src["rational"], {"num", "den"}, {"num", "den"},
                              "operator.source.rational")
        task = obj["task"]
        _require_keys(task, {"type", "modes", "start", "K", "p_grid", "radius",
                             "window", "samples", "suite", "matrix_size"},
                      {"type"}, "task")
        if task["type"] not in ("classify", "orbit", "cesaro", "laurent", "verify"):
            raise ConfigError(f"task.type {task['type']!r} unknown")
        if task["type"] == "classify":
            try:
                for m in task.get("modes") or ():
                    norm_mode(m)
            except (ValueError, AttributeError) as exc:
                raise ConfigError(f"task.modes: {exc}") from None
        if task["type"] in ("orbit", "cesaro") and "K" in task:
            try:
                k_ok = int(task["K"]) >= 1
            except (TypeError, ValueError):
                k_ok = False
            if not k_ok:
                raise ConfigError(f"task.K must be an integer >= 1, got {task['K']!r}")
        size = task.get("matrix_size", 1)
        if type(size) is not int or not 1 <= size <= MAX_MATRIX_SIZE:
            raise ConfigError(f"task.matrix_size must be an integer in "
                              f"1..{MAX_MATRIX_SIZE}, got {size!r}")
        grid = parse_grid(obj.get("grid"))
        output = obj.get("output") or {}
        _require_keys(output, {"formats"}, set(), "output")
        formats = tuple(output.get("formats", ["json", "csv"]))
        for f in formats:
            if f not in ("json", "csv"):
                raise ConfigError(f"output format {f!r} unknown")
        cfg = JobConfig(space, operator, task, grid, formats, obj)
        cfg.validate_compatibility()
        return cfg

    def validate_compatibility(self) -> None:
        if self.task["type"] in ("classify", "orbit", "cesaro") and (
                self.space is None or self.operator is None):
            raise ConfigError(f"task {self.task['type']} needs space and operator")
        if self.task["type"] == "laurent" and self.operator is None:
            raise ConfigError("task laurent needs an operator with a rational source")
        if self.operator and self.operator["kind"] in ("check", "toeplitz") \
                and self.space is not None and self.space.is_finite_type:
            from .spaces import AlphaBeyondPrefix, nuclearity_check

            try:
                nuclear = nuclearity_check(self.space).nuclear
            except AlphaBeyondPrefix as exc:
                raise ConfigError(f"space.alpha: {exc}") from exc
            if not nuclear:
                raise ConfigError(
                    "a dual operator on this finite-type space is outside the "
                    "classifiers' hypotheses: the space is not nuclear")

    def build_symbols(self) -> tuple[Optional[Symbol], Optional[Symbol]]:
        theta = beta = None
        if self.operator.get("theta") is not None:
            theta = parse_symbol(self.operator["theta"])
        if self.operator.get("beta") is not None:
            beta = parse_symbol(self.operator["beta"])
        return theta, beta

    def build_operator(self, grid_n: int) -> OperatorSpec:
        kind = self.operator["kind"]
        if self.operator.get("source") is not None:
            src = self.operator["source"]
            F = _source_function(src, self.space)
            rep = toeplitz_from_function(F, self.space, float(src["radius"]),
                                         window=int(src.get("window", 32)))
            return rep.operator
        theta, beta = self.build_symbols()
        if kind == "hat":
            if theta is None:
                raise ConfigError("hat operator needs theta")
            return make_hat_operator(self.space, theta, grid_n)
        if kind == "check":
            if beta is None:
                raise ConfigError("check operator needs beta")
            return make_check_operator(self.space, beta, grid_n=grid_n)
        if theta is None or beta is None:
            raise ConfigError("toeplitz operator needs theta and beta")
        return make_toeplitz_operator(self.space, theta, beta, grid_n=grid_n)


def _source_function(src: dict, space: Optional[SpaceSpec]):
    """The rational_symbol of operator.source, intended for the disc on a
    finite-type space and for the whole plane otherwise."""
    annulus = src.get("annulus") or [0.0, float("inf")]
    intended = "disc" if (space is not None and space.is_finite_type) else "entire"
    return rational_symbol(src["rational"]["num"], src["rational"]["den"],
                           float(annulus[0]), float(annulus[1]), intended)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _jsonable(x: Any) -> Any:
    import numpy as np
    from fractions import Fraction

    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, float) and x != x:
        return "nan"
    return x


def verdict_json(v: Verdict) -> dict:
    out = {
        "property": v.prop,
        "status": v.status.value,
        "operator": v.operator_kind,
        "space": v.space.describe(),
    }
    if v.certificate is not None:
        out["certificate"] = {"rule": v.certificate.rule,
                              "text": v.certificate.text,
                              "params": _jsonable(v.certificate.params)}
    else:
        out["certificate"] = None
    out["witness"] = _jsonable(v.witness)
    out["evidence"] = _jsonable(v.evidence)
    return out


@dataclass
class Report:
    config: dict
    verdicts: list = field(default_factory=list)
    series: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "library": {"name": "psop", "version": __version__},
            "config": self.config,
            "verdicts": self.verdicts,
            "series": self.series,
            "summary": _jsonable(self.summary),
            "timing": {"file": "timing.json"},
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------


_TASK_ERRORS = (TailUnbounded, PoleOnContour, CertificateFitFailed,
                UnsupportedSpace, OperatorContractError, OutOfSampledRange)


def _start_element(cfg: JobConfig, N: int) -> Element:
    spec = cfg.task.get("start") or {"basis": 1}
    if "basis" in spec and len(spec) == 1:
        return basis_element(int(spec["basis"]), N, cfg.space)
    return element_from_symbol(parse_symbol(spec), N, cfg.space)


def run_classify(cfg: JobConfig, report: Report, outdir: Path) -> None:
    grid = cfg.grid
    op = cfg.build_operator(grid.N)
    modes = cfg.task.get("modes") or ("topologizable", "m_topologizable", "power_bounded")
    decided = classify_operator(op, modes, grid)
    report.verdicts = [verdict_json(decided[norm_mode(m)]) for m in modes]
    if "csv" in cfg.formats and "matrix_size" in cfg.task:
        M = toeplitz_matrix(op.theta or zero_symbol(), op.beta or zero_symbol(),
                            cfg.task["matrix_size"])
        path = outdir / "matrix.csv"
        path.write_text(matrix_csv(M))
        report.series.append({"file": path.name, "kind": "matrix"})


def run_orbit(cfg: JobConfig, report: Report, outdir: Path) -> None:
    grid = cfg.grid
    op = cfg.build_operator(grid.N)
    K = int(cfg.task.get("K", grid.K))
    p_grid = [int(p) for p in cfg.task.get("p_grid", list(range(1, grid.P + 1)))]
    x = _start_element(cfg, grid.N)
    rec = compute_orbit(op, x, K, p_grid)
    if "csv" in cfg.formats:
        path = outdir / "orbit.csv"
        path.write_text(orbit_csv(rec))
        report.series.append({"file": path.name, "kind": "orbit"})
    report.summary = {
        "K": K, "p_grid": p_grid,
        "final_log_norms": [float(v) for v in rec.log_norms[-1]],
        "final_log_cesaro": [float(v) for v in rec.log_cesaro[-1]],
    }
    if cfg.task["type"] == "cesaro":
        mean = cesaro_mean(op, K, x)
        if "csv" in cfg.formats:
            path = outdir / "cesaro_mean.csv"
            rows = "\n".join(f"{i + 1},{fmt17(complex(v).real)},{fmt17(complex(v).imag)}"
                             for i, v in enumerate(mean.values))
            path.write_text("n,re,im\n" + rows + "\n")
            report.series.append({"file": path.name, "kind": "cesaro_mean"})


def run_laurent(cfg: JobConfig, report: Report, outdir: Path) -> None:
    src = cfg.operator.get("source")
    if src is None:
        raise ConfigError("laurent task needs operator.source.rational")
    F = _source_function(src, cfg.space)
    window = cfg.task.get("window", [-16, 16])
    n_min, n_max = int(window[0]), int(window[1])
    samples = cfg.task.get("samples")
    radius = float(cfg.task.get("radius", src["radius"]))
    co = laurent_coeffs(F, radius, n_min, n_max,
                        int(samples) if samples else None)
    if "csv" in cfg.formats:
        path = outdir / "laurent.csv"
        path.write_text(co.to_csv())
        report.series.append({"file": path.name, "kind": "laurent_coefficients"})
    theta, beta = symbol_split(co)
    report.summary = {
        "radius": radius, "samples": co.samples,
        "forward_symbol": theta.describe(),
        "backward_symbol": beta.describe(),
        "max_error_estimate": max(co.errors),
    }
    if cfg.space is not None and cfg.space.is_linear:
        rep = toeplitz_from_function(F, cfg.space, radius,
                                     grid=cfg.grid, window=max(abs(n_min), n_max))
        report.verdicts = [verdict_json(v) for v in rep.verdicts.values()]
        report.summary["backward_weighted_sum"] = rep.backward_sum
        report.summary["backward_weighted_sum_tail"] = rep.backward_sum_tail


def run_verify(cfg_or_suite, report: Optional[Report] = None) -> list[SweepOutcome]:
    suite = cfg_or_suite if isinstance(cfg_or_suite, str) \
        else cfg_or_suite.task.get("suite", "all")
    try:
        outcomes = run_suite(suite)
    except KeyError as exc:
        raise ConfigError(f"unknown verification suite {suite!r}") from exc
    if report is not None:
        report.summary = {"suite": suite,
                          "outcomes": [{"name": o.name, "passed": o.passed,
                                        "min_slack": o.min_slack}
                                       for o in outcomes]}
    return outcomes


def run(cfg: JobConfig, outdir: Path) -> tuple[Report, int]:
    report = Report(config=cfg.raw)
    t0 = time.perf_counter()
    exit_code = 0
    outdir.mkdir(parents=True, exist_ok=True)
    task = cfg.task["type"]
    try:
        if task == "classify":
            run_classify(cfg, report, outdir)
        elif task in ("orbit", "cesaro"):
            run_orbit(cfg, report, outdir)
        elif task == "laurent":
            run_laurent(cfg, report, outdir)
        elif task == "verify":
            outcomes = run_verify(cfg, report)
            for o in outcomes:
                print(o.line())
            if not all(o.passed for o in outcomes):
                exit_code = 4
    except ConfigError:
        raise
    except (*_TASK_ERRORS, ValueError) as exc:
        raise TaskError(str(exc)) from exc
    wall = time.perf_counter() - t0
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "timing.json").write_text(
        json.dumps({"seconds": wall}, indent=2) + "\n")
    return report, exit_code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_config(path: str) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return JobConfig.parse(raw)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psop",
        description="Toeplitz, convolution, and dual convolution operators on "
                    "power series spaces: classification, orbits, and symbol "
                    "extraction")
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="Execute a JSON job config")
    run_cmd.add_argument("config", type=str)
    run_cmd.add_argument("--out", type=str, default="psop-out")
    ver_cmd = sub.add_parser("verify", help="Run a verification suite")
    ver_cmd.add_argument("suite", type=str,
                         choices=["inequalities", "identities", "classifiers",
                                  "laurent", "all"])
    lau_cmd = sub.add_parser("laurent", help="Run a laurent-task config")
    lau_cmd.add_argument("config", type=str)
    lau_cmd.add_argument("--out", type=str, default="psop-out")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            outcomes = run_verify(args.suite)
            for o in outcomes:
                print(o.line())
            return 0 if all(o.passed for o in outcomes) else 4
        cfg = _load_config(args.config)
        if args.command == "laurent" and cfg.task["type"] != "laurent":
            raise ConfigError("the laurent subcommand needs a laurent task config")
        report, code = run(cfg, Path(args.out))
        n_verdicts = len(report.verdicts)
        print(f"report written to {Path(args.out) / 'report.json'}"
              f" ({n_verdicts} verdicts, {len(report.series)} series)")
        for v in report.verdicts:
            rule = (v.get("certificate") or {}).get("rule")
            print(f"  {v['property']}: {v['status']}"
                  + (f" [{rule}]" if rule else ""))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TaskError as exc:
        print(f"task error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
