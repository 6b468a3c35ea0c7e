"""`jobs`: `psop run` job configs in the README's JSON schema, run one after
another in-process through psop.cli.

Setup writes every config as JSON text and parses it back with
`JobConfig.parse`, as `psop run job.json` does; the timed operation is
`cli.run(config, outdir)`, which writes report.json, timing.json and the CSV
series.  A pass holds the 116 seeded jobs of JOB_MIX and the four
FAILING_JOBS; the seed draws the symbols, starts and quadrature radii.  The
shares of JOB_MIX are an assumption: there is no record of how psop is used.

Two faults of psop make jobs fail every time:
  * inf_evidence: classify evidence or orbit norms holding +-inf make
    Report.to_json raise ValueError (json.dumps(..., allow_nan=False);
    cli._jsonable maps NaN only), so no report.json is written;
  * envelope_overflow: an orbit from far out against a small symbol ratio
    raises OverflowError in operators._hat_output_tail.
Three fixed jobs and the seeded kinds in FAULTY_KINDS hit the first fault
whatever the seed draws; one fixed job hits the second.  They stay in the
pass so that a fix shows, and `failed` is the same share in every run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import reference as ref
from common import Op, Workload, rational, rational_list, rng_for, text

FIN = {"type": "finite", "alpha": {"kind": "linear"}}
INF = {"type": "infinite", "alpha": {"kind": "linear"}}

# job kind -> jobs per pass (the seeded part of a pass)
JOB_MIX = {
    "classify_hat_finite": 16,
    "classify_hat_infinite": 12,
    "classify_hat_infinite_long": 4,
    "classify_check_finite": 8,
    "classify_check_finite_geometric": 4,
    "classify_check_infinite": 8,
    "classify_check_infinite_geometric": 4,
    "classify_toeplitz_finite": 10,
    "classify_toeplitz_infinite": 10,
    "orbit": 12,
    "orbit_nilpotent": 4,
    "cesaro": 8,
    "laurent": 8,
    "classify_toeplitz_source": 8,
}
# seeded kinds that fail on every draw today, and the fault they hit
FAULTY_KINDS = {
    "classify_hat_infinite_long": "inf_evidence",
    "classify_check_finite_geometric": "inf_evidence",
    "classify_check_infinite_geometric": "inf_evidence",
    "orbit_nilpotent": "inf_evidence",
}


def _job(space, operator, task):
    return {"schema": 1, "space": space, "operator": operator, "task": task}


FAILING_JOBS = [
    ("inf_evidence", _job(INF, {"kind": "check",
                                "beta": {"geometric": {"c": "3/4", "r": "1/2"}}},
                          {"type": "classify"})),
    ("inf_evidence", _job(INF, {"kind": "hat",
                                "theta": {"finite": ["1", "-3/8", "-1/2", "2"]}},
                          {"type": "classify", "modes": ["power_bounded"]})),
    ("inf_evidence", _job(FIN, {"kind": "toeplitz", "theta": {"finite": ["-6", "6"]},
                                "beta": {"geometric": {"c": "3", "r": "3/8"}}},
                          {"type": "classify"})),
    ("envelope_overflow", _job(FIN, {"kind": "hat",
                                     "theta": {"geometric": {"c": "1/2", "r": "1/100"}}},
                               {"type": "orbit", "start": {"basis": 200}})),
]

RATIOS = [Fraction(k, 8) for k in (1, 3, 5, 7)]
ORBIT_K = 16
ORBIT_P = [1, 2, 4, 8]
GRID_N = 256          # GridParams().N: the orbit truncation


def _finite(vals):
    return {"finite": [text(v) for v in vals]}


class JobsWorkload(Workload):
    name = "jobs"

    def build(self) -> None:
        rng = rng_for(self.seed, self.name)
        self._ratios = {}
        configs = []
        for kind, count in JOB_MIX.items():
            make = getattr(self, "_" + kind)
            configs.extend((kind, FAULTY_KINDS.get(kind), make(rng, i))
                           for i in range(count))
        configs.extend(("fixed_" + fault, fault, cfg) for fault, cfg in FAILING_JOBS)
        cli = self.ps.cli
        out = Path(self.outdir)
        self.ops = []
        for i, (kind, fault, cfg) in enumerate(configs):
            parsed = cli.JobConfig.parse(json.loads(json.dumps(cfg)))
            jobdir = out / f"{i:03d}-{kind}"
            self.ops.append(Op(kind, self._runner(parsed, jobdir),
                               data={"config": cfg, "dir": jobdir}, fault=fault))

    def _runner(self, cfg, jobdir):
        cli = self.ps.cli

        def run():
            return cli.run(cfg, jobdir)[1]
        return run

    # -- seeded job generators ------------------------------------------

    def _classify_hat_finite(self, rng, i):
        if i % 4 == 1:
            c = Fraction(rng.randint(1, 8), 8)
            r = self._ratio(rng, "hat", i // 4)
            theta = {"geometric": {"c": text(c if rng.random() < 0.7 else -c),
                                   "r": text(r)}}
        else:
            theta = _finite(rational_list(rng, 1 + i % 6, 2))
        return _job(FIN, {"kind": "hat", "theta": theta}, {"type": "classify"})

    def _ratio(self, rng, family, slot):
        """Geometric ratios cycle through a seeded permutation of RATIOS:
        reading c r^i exactly costs by the bit size of r, so a seeded draw of
        each ratio would make the pass time depend on the seed."""
        if slot == 0:
            self._ratios[family] = rng.sample(RATIOS, len(RATIOS))
        return self._ratios[family][slot % len(RATIOS)]

    @staticmethod
    def _classify_hat_infinite(rng, i):
        """Classes the power-bounded routes settle or sweep without overflow:
        two-term symbols with |theta_0| <= 1 (the evidence sweep), nonnegative
        sums above 1, |theta_0| > 1, and scalars."""
        cls = i % 4
        if cls == 0:
            vals = [rational(rng, 2, 1), rational(rng, 8, 2, nonzero=True)]
        elif cls == 1:
            vals = [Fraction(rng.randint(1, 4), 4) for _ in range(rng.randint(2, 6))]
            vals[-1] += 1
        elif cls == 2:
            vals = [Fraction(rng.choice([-1, 1]) * rng.randint(5, 12), 4)] + \
                rational_list(rng, rng.randint(1, 5), 4)
        else:
            vals = [rational(rng, 6, 2, nonzero=True)]
        return _job(INF, {"kind": "hat", "theta": _finite(vals)}, {"type": "classify"})

    @staticmethod
    def _classify_hat_infinite_long(rng, i):
        """Three to six terms, |theta_0| <= 1 and a negative entry: no
        certificate route applies, so the evidence sweep runs to k = 64,
        where the top coefficient's weight e^{8 k (len - 1)} overflows s_p."""
        vals = [rational(rng, 4, 2)] + rational_list(rng, 2 + i % 4, 4)
        vals[0] = max(min(vals[0], Fraction(1)), Fraction(-1))
        if min(vals) >= 0:
            vals[-1] = -vals[-1]
        return _job(INF, {"kind": "hat", "theta": _finite(vals)}, {"type": "classify"})

    def _check_geometric(self, space, family, rng, i):
        """Any geometric beta gives L_log_at_Q[0] = -inf in the evidence."""
        c = Fraction(rng.randint(1, 8), 4)
        beta = {"geometric": {"c": text(c if rng.random() < 0.7 else -c),
                              "r": text(self._ratio(rng, family, i))}}
        return _job(space, {"kind": "check", "beta": beta}, {"type": "classify"})

    def _classify_check_finite_geometric(self, rng, i):
        return self._check_geometric(FIN, "check_finite", rng, i)

    def _classify_check_infinite_geometric(self, rng, i):
        return self._check_geometric(INF, "check_infinite", rng, i)

    @staticmethod
    def _check(space, rng, i, mag):
        beta = rational_list(rng, 1 + i % 6, mag) if i % 4 != 3 \
            else [rational(rng, mag, 2, nonzero=True)]
        return _job(space, {"kind": "check", "beta": _finite(beta)}, {"type": "classify"})

    def _classify_check_finite(self, rng, i):
        return self._check(FIN, rng, i, 4)

    def _classify_check_infinite(self, rng, i):
        return self._check(INF, rng, i, 6)

    def _classify_toeplitz_finite(self, rng, i):
        if i % 2:
            theta = {"geometric": {"c": text(Fraction(rng.randint(1, 8), 8)),
                                   "r": text(self._ratio(rng, "toeplitz", i // 2))}}
        else:
            theta = _finite(rational_list(rng, 1 + i % 4, 2))
        beta = _finite(rational_list(rng, 1 + (i // 2) % 4, 2, 4))
        return _job(FIN, {"kind": "toeplitz", "theta": theta, "beta": beta},
                    {"type": "classify"})

    @staticmethod
    def _classify_toeplitz_infinite(rng, i):
        theta = _finite(rational_list(rng, 1 + i % 4, 2))
        beta = _finite(rational_list(rng, 1 + (i // 2) % 4, 2))
        return _job(INF, {"kind": "toeplitz", "theta": theta, "beta": beta},
                    {"type": "classify"})

    @staticmethod
    def _orbit_job(rng, i, task_type):
        """Finite rational symbols and finitely supported starts, short
        enough that the orbit never reaches the truncation.  The symbol's
        first entry is positive, so neither T^k x nor the Cesaro means reach
        the zero vector, whose log norm -inf psop run cannot write."""
        space = FIN if i % 2 else INF
        kind = "hat" if (i // 2) % 2 == 0 else "check"
        first = Fraction(rng.randint(1, 2), 2 ** rng.randint(0, 3))
        sym = _finite([first] + rational_list(rng, i % 4, 2) if i % 4 else [first])
        operator = {"kind": kind, ("theta" if kind == "hat" else "beta"): sym}
        if (i // 4) % 2:
            start = {"basis": rng.randint(1, 8)}
        else:
            start = _finite(rational_list(rng, rng.randint(1, 4), 4))
        return _job(space, operator, {"type": task_type, "start": start,
                                      "K": ORBIT_K, "p_grid": ORBIT_P})

    def _orbit(self, rng, i):
        return self._orbit_job(rng, i, "orbit")

    @staticmethod
    def _orbit_nilpotent(rng, i):
        """Dual orbits with beta_0 = 0 from a start of at most four entries:
        each step moves the support down, so T^16 x is the zero vector and
        its log norms are -inf."""
        beta = [Fraction(0)] + rational_list(rng, 1 + i % 3, 2)
        start = _finite(rational_list(rng, rng.randint(1, 4), 4))
        return _job(FIN if i % 2 else INF, {"kind": "check", "beta": _finite(beta)},
                    {"type": "orbit", "start": start, "K": ORBIT_K,
                     "p_grid": ORBIT_P})

    def _cesaro(self, rng, i):
        return self._orbit_job(rng, i, "cesaro")

    @staticmethod
    def _source(rng):
        """1/(a - z): holomorphic on |z| < a, coefficients a^{-n-1}."""
        a = rng.choice([1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
        radius = a * rng.choice([0.5, 0.625, 0.75, 0.875])
        return a, radius, {"rational": {"num": [1], "den": [a, -1]},
                           "radius": radius, "window": rng.choice([16, 24, 32]),
                           "annulus": [0.0, a]}

    def _laurent(self, rng, i):
        a, radius, source = self._source(rng)
        half = rng.choice([8, 12, 16])
        return _job(FIN, {"kind": "toeplitz", "source": source},
                    {"type": "laurent", "radius": radius, "window": [-half, half],
                     "samples": 4 * 2 ** (2 * half).bit_length()})

    def _classify_toeplitz_source(self, rng, i):
        _, _, source = self._source(rng)
        return _job(FIN, {"kind": "toeplitz", "source": source}, {"type": "classify"})

    # -- results and checks -----------------------------------------------

    def fault_matches(self, op, exc) -> bool:
        if op.fault == "inf_evidence":
            return isinstance(exc, ValueError) and "JSON compliant" in str(exc)
        if op.fault == "envelope_overflow":
            return isinstance(exc, OverflowError)
        return False

    def fingerprint(self, op, code):
        return (code, (op.data["dir"] / "report.json").read_bytes())

    def compare(self, op, first, again) -> None:
        if first[0] != again[0]:
            raise ref.CheckFailed(f"{op.label}: exit code {first[0]} then {again[0]}")
        ref.check_same_bytes(first[1], again[1], f"{op.label} {op.data['dir'].name}")

    def _report(self, op) -> dict:
        return json.loads((op.data["dir"] / "report.json").read_text())

    def decisive(self, op, code) -> int:
        return sum(v["status"] != "inconclusive" for v in self._report(op)["verdicts"])

    def check(self, op, code) -> None:
        where = f"{op.label} {op.data['dir'].name}"
        if code != 0:
            raise ref.CheckFailed(f"{where}: exit code {code}")
        report = self._report(op)
        cfg = op.data["config"]
        statuses = {v["property"]: v["status"] for v in report["verdicts"]}
        ref.check_hierarchy(statuses, where)
        if op.label == "classify_hat_finite" and "power_bounded" in statuses:
            ref.check_power_bounded_l1(statuses["power_bounded"],
                                       _l1(cfg["operator"]["theta"]), where)
        if op.label in ("orbit", "orbit_nilpotent", "cesaro"):
            self._check_orbit(cfg, report, where)
        if op.label == "laurent":
            src = cfg["operator"]["source"]
            rows = []
            lines = (op.data["dir"] / "laurent.csv").read_text().splitlines()[1:]
            for line in lines:
                n, re, im, err = line.split(",")
                rows.append((int(n), float(re), float(im), float(err)))
            if not rows:
                raise ref.CheckFailed(f"{where}: empty laurent.csv")
            ref.check_laurent_rows(rows, Fraction(src["rational"]["den"][0]), where)

    def _check_orbit(self, cfg, report, where) -> None:
        """Final norms ||T^K x||_p against an exact orbit and mpmath sums."""
        op = cfg["operator"]
        finite = cfg["space"]["type"] == "finite"
        start = cfg["task"]["start"]
        if "basis" in start:
            x = [Fraction(0)] * GRID_N
            x[start["basis"] - 1] = Fraction(1)
        else:
            vals = [Fraction(v) for v in start["finite"]]
            x = vals + [Fraction(0)] * (GRID_N - len(vals))
        if op["kind"] == "hat":
            sym = [Fraction(v) for v in op["theta"]["finite"]]
            for _ in range(ORBIT_K):
                x = ref.cauchy(sym, x, GRID_N)
        else:
            sym = [Fraction(v) for v in op["beta"]["finite"]]
            for _ in range(ORBIT_K):
                x = ref.dual_sum(sym, x)
        got = report["summary"]["final_log_norms"]
        for p, g in zip(cfg["task"]["p_grid"], got):
            want = ref.log_weighted_sum(finite, x, 1, p)
            ref.check_log_close(g, want, f"{where} final norm p={p}")


def _l1(theta: dict) -> Fraction:
    if "finite" in theta:
        return ref.abs_sum(Fraction(v) for v in theta["finite"])
    g = theta["geometric"]
    return abs(Fraction(g["c"])) / (1 - abs(Fraction(g["r"])))
