"""Three-valued classification of the operators.

Decisive Holds/Fails verdicts are issued only from certificates that the
oracle module can replay: closed-form sums, coefficient envelopes derived
from generating-function estimates, and fixed-index growth witnesses.
Everything the quantifiers hide beyond those symbol classes stays
Inconclusive, with the swept grid reported as evidence.  Grids never decide:
enlarging them can only refine evidence, so decisive verdicts are stable
under grid growth by construction.

Boundary discipline: floating comparisons against the critical value 1 use a
tolerance band (inside the band means Inconclusive); exact rational data
decides equality cases outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .numerics import NEG_INF, exp_guarded, log_nonneg, sum_exp_rows
from .operators import (
    OperatorContractError,
    OperatorKind,
    OperatorSpec,
    _NORM_WINDOW,
    check_column_log_norms,
    hat_column_log_norms,
    require_member,
    symbol_log_norm_bounds,
)
from .spaces import (
    SpaceSpec,
    TailUnbounded,
    fit_dual_certificate,
    nuclearity_check,
    stability_constant,
)
from .symbols import (
    ConvPowerTable,
    SeriesSum,
    Symbol,
    SymbolKind,
    coeff,
    ell1_norm,
    exact_float,
    float_power_rows,
    float_prefix,
    float_symbol,
    is_rational,
    prefix,
    readable_length,
    weighted_beta_sum_finite,
)


# the band around 1 inside which a float sum or modulus stays undecided
_TOL = 1e-9


class UnsupportedSpace(ValueError):
    """The classifier's closed forms require alpha_n = n."""


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GridParams:
    N: int = 256
    K: int = 64
    P: int = 8
    Q: int = 32

    def __post_init__(self):
        if min(self.N, self.K, self.P, self.Q) < 1:
            raise ValueError("grid axes must be >= 1")

    def doubled(self) -> "GridParams":
        return GridParams(2 * self.N, 2 * self.K, 2 * self.P, 2 * self.Q)


@dataclass(frozen=True)
class Certificate:
    rule: str
    params: dict
    text: str


@dataclass(frozen=True)
class Verdict:
    prop: str
    status: Status
    space: SpaceSpec
    operator_kind: str
    theta: Optional[Symbol] = None
    beta: Optional[Symbol] = None
    certificate: Optional[Certificate] = None
    witness: Optional[dict] = None
    evidence: dict = field(default_factory=dict)

    @property
    def decisive(self) -> bool:
        return self.status is not Status.INCONCLUSIVE


@dataclass(frozen=True)
class _Verdicts:
    """The verdict maker of one classifier call, bound to its space, operator
    kind, symbols and evidence.  A holds or fails verdict keeps the evidence
    dict itself, so keys the call adds later show in it; an open verdict
    copies it and adds its reason.  A rule with evidence of its own passes
    that instead, and an empty dict gives way to a fresh one."""

    space: SpaceSpec
    kind: str
    theta: Optional[Symbol] = None
    beta: Optional[Symbol] = None
    evidence: Optional[dict] = None

    def _verdict(self, prop, status, cert, witness, evidence) -> Verdict:
        return Verdict(prop, status, self.space, self.kind, self.theta, self.beta,
                       cert, witness, evidence)

    def _evidence(self, evidence: Optional[dict]) -> dict:
        return (self.evidence if evidence is None else evidence) or {}

    def holds(self, prop: str, cert: Certificate, evidence: Optional[dict] = None) -> Verdict:
        return self._verdict(prop, Status.HOLDS, cert, None, self._evidence(evidence))

    def fails(self, prop: str, cert: Certificate, witness: dict,
              evidence: Optional[dict] = None) -> Verdict:
        return self._verdict(prop, Status.FAILS, cert, witness, self._evidence(evidence))

    def open(self, prop: str, reason: str, evidence: Optional[dict] = None) -> Verdict:
        ev = dict(self._evidence(evidence))
        ev.setdefault("reason", reason)
        return self._verdict(prop, Status.INCONCLUSIVE, None, None, ev)


# ---------------------------------------------------------------------------
# Small exact helpers
# ---------------------------------------------------------------------------


def _exact_abs(v) -> Optional[Fraction]:
    if is_rational(v):
        return abs(Fraction(v))
    return None


def _scaled_delta(s: Symbol):
    """(c,) when the symbol is supported on index 0 only, else None."""
    sup = s.bounded_support()
    if sup == 0:
        return (0,)
    if sup == 1:
        return (coeff(s, 0),)
    return None


def _three_way_vs_one(total: SeriesSum) -> str:
    """'le' / 'gt' / 'boundary' for a tail-bounded sum against 1."""
    if total.infinite:
        return "gt"
    if total.exact is not None:
        return "le" if total.exact <= 1 else "gt"
    if total.upper <= 1.0 - _TOL:
        return "le"
    if total.lower > 1.0 + _TOL:
        return "gt"
    return "boundary"


def _abs_sum_or_none(s: Symbol) -> Optional[SeriesSum]:
    """The absolute sum of s, or None when its certificate cannot settle it."""
    try:
        return ell1_norm(s)
    except TailUnbounded:
        return None


def _tame_dual_sum(space: SpaceSpec, beta: Symbol) -> SeriesSum:
    """The dual side's sum in the grade-preserving column bound (alpha_n = n):
    weighted by e^n on the finite type, plain on the infinite type."""
    return weighted_beta_sum_finite(beta) if space.is_finite_type else ell1_norm(beta)


def _first_prefix_exceeding_one(s: Symbol) -> Optional[int]:
    acc = Fraction(0) if s.is_exact else 0.0
    for i in range(4096):
        acc += abs(Fraction(coeff(s, i))) if s.is_exact else abs(coeff(s, i))
        if acc > 1:
            return i + 1
    return None


# ---------------------------------------------------------------------------
# Forward (convolution) operator classifiers
# ---------------------------------------------------------------------------


def _subadditive_alpha(space: SpaceSpec) -> bool:
    """alpha_{i+j+1} <= alpha_{i+1} + alpha_{j+1} in closed form (linear,
    root, log); unknown for explicit prefixes."""
    from .spaces import AlphaKind

    return space.alpha.kind in (AlphaKind.LINEAR, AlphaKind.ROOT, AlphaKind.LOG)


def _hat_grade_multiplier(space: SpaceSpec, grid: GridParams) -> int:
    """q(p) / p of the hat's column bound ||T e_n||_p <= ||theta||_{q(p)}
    ||e_n||_{q(p)}: 2 on the finite type, alpha's stability bound on the
    infinite type."""
    return 2 if space.is_finite_type else stability_constant(space.alpha, grid.N).bound


def classify_hat_m_top(space: SpaceSpec, theta: Symbol,
                       grid: GridParams = GridParams()) -> Verdict:
    """Forward operators carry geometric power-norm envelopes
    ||T^k e_n||_p <= C_p^k ||e_n||_{q(p)}.

    The constants come from submultiplicativity of the symbol norms, not from
    iterating the single-application column bound (iterating it doubles the
    grade each step, so it yields no k-uniform constant at a fixed grade):
    on the finite type ||a*b||_q <= e^{alpha_1/q} ||a||_q ||b||_q for linear
    alpha, and ||theta^{*k}||_q <= (sum |theta_i|)^k always; on the infinite
    type ||a*b||_q <= ||a||_q ||b||_q whenever alpha is subadditive."""
    membership = require_member(space, theta, grid.N)
    v = _Verdicts(space, "hat", theta=theta)
    mult = _hat_grade_multiplier(space, grid)
    norm_at = {}

    def sym_norm_upper(q: int) -> float:
        if q not in norm_at:
            _, hi = symbol_log_norm_bounds(space, theta, q)
            norm_at[q] = exp_guarded(hi)
        return norm_at[q]

    # the route, q(p) = q_per_p * p, and C_p as a function of q(p)
    route, q_per_p, c_of = None, mult, sym_norm_upper
    if space.is_finite_type and space.is_linear:
        route = "same_grade_submultiplicative"
        c_of = lambda q: math.exp(1.0 / q) * sym_norm_upper(q)
    elif space.is_finite_type:
        l1 = _abs_sum_or_none(theta)
        if l1 is not None and not l1.infinite:
            route, c_of = "sup_grade_abs_sum", lambda q: l1.upper
    elif space.is_linear:
        route, q_per_p = "tame_linear", 1
    elif _subadditive_alpha(space):
        route = "stable_subadditive"
    grades = range(1, grid.P + 1)
    q_of_p = {p: q_per_p * p for p in grades} if route else {}
    c_p = {p: c_of(q) for p, q in q_of_p.items()}
    sym_norms = {p: sym_norm_upper(mult * p) for p in grades}
    if route is None:
        return v.open("m_topologizable",
                      "no k-uniform constant at a fixed grade is certified for this "
                      "exponent sequence (the single-application bound doubles the "
                      "grade when iterated)", evidence={"symbol_norms": sym_norms})
    cert = Certificate(
        "hat_power_norm_envelope",
        {"route": route,
         "q_of_p": {str(p): q for p, q in q_of_p.items()},
         "C_p": {str(p): max(c_p[p], 1.0) * (1.0 + 1e-9) for p in c_p},
         "stability_bound": None if space.is_finite_type else mult},
        "submultiplicative symbol norms give ||T^k e_n||_p <= C_p^k ||e_n||_{q(p)}")
    return v.holds("m_topologizable", cert, evidence={
        "C_p": c_p, "symbol_norms": sym_norms, "membership": membership.overall})


def classify_hat_topologizable(space: SpaceSpec, theta: Symbol,
                               grid: GridParams = GridParams()) -> Verdict:
    """Always decisive: the single-application column bound applied to the
    k-th convolution power gives per-power constants L_{k,p} = ||theta^{*k}||
    at the doubled (or stability-scaled) grade, with q fixed in k."""
    return _hat_topologizable(classify_hat_m_top(space, theta, grid), grid)


def _hat_topologizable(mt: Verdict, grid: GridParams) -> Verdict:
    """The topologizable verdict of the hat operator whose m_topologizable
    verdict is mt: implied by it when it holds, else per-power constants."""
    space, theta = mt.space, mt.theta
    if mt.status is Status.HOLDS:
        cert = Certificate("implied_by_m_topologizable",
                           {"inner": {"rule": mt.certificate.rule,
                                      "params": mt.certificate.params}},
                           "geometric constants imply per-power constants")
        return replace(mt, prop="topologizable", certificate=cert)
    q_mult = _hat_grade_multiplier(space, grid)
    table = ConvPowerTable(float_symbol(theta), grid.N)
    L = {}
    for p in range(1, grid.P + 1):
        for k in range(1, min(grid.K, 16) + 1):
            _, hi = symbol_log_norm_bounds(space, table.power(k), q_mult * p)
            L[(k, p)] = exp_guarded(hi)
    cert = Certificate(
        "hat_per_power_symbol_norms",
        {"q_mult": q_mult,
         "L_sample": {f"{k},{p}": v for (k, p), v in list(L.items())[:16]}},
        "per-power constants L_{k,p} = ||theta^{*k}||_{q(p)} are finite for "
        "every power because the space is closed under convolution")
    return _Verdicts(space, "hat", theta=theta).holds("topologizable", cert, evidence={
        "L_kp": {f"{k},{p}": v for (k, p), v in L.items()},
        "membership": mt.evidence.get("membership")})


def classify_hat_power_bounded_finite(space: SpaceSpec, theta: Symbol,
                                      grid: GridParams = GridParams()) -> Verdict:
    """Decisive when the absolute sum of the symbol is settled: the operator
    is power bounded exactly when sup_p of the symbol norms, which is the
    plain absolute sum by monotone convergence, is at most 1."""
    if not space.is_finite_type:
        raise UnsupportedSpace("this route is the finite-type criterion")
    evidence: dict = {}
    v = _Verdicts(space, "hat", theta=theta, evidence=evidence)
    try:
        total = ell1_norm(theta)
    except TailUnbounded as exc:
        return v.open("power_bounded", f"tail certificate cannot settle the absolute sum: {exc}")
    verdictside = _three_way_vs_one(total)
    exact = str(total.exact) if total.exact is not None else None
    evidence.update({"ell1_lower": total.lower, "ell1_upper": total.upper,
                     "ell1_exact": exact})
    if verdictside == "le":
        cert = Certificate(
            "hat_l1_contraction", {"sum_exact": exact, "sum_upper": total.upper},
            "sup over grades of the symbol norm equals the absolute sum <= 1")
        return v.holds("power_bounded", cert)
    if verdictside == "gt":
        m = _first_prefix_exceeding_one(theta)
        # orbit cross-check: first-column norms grow under convolution powers
        table = ConvPowerTable(float_symbol(theta), grid.N + 4)
        evidence["first_column_log_norms"] = [
            float(hat_column_log_norms(space, table.power(k), 1, 1)[0])
            for k in range(1, min(grid.K, 32) + 1)]
        cert = Certificate("hat_l1_exceeds", {"prefix_len": m},
                           "a finite prefix of the absolute sum already exceeds 1")
        return v.fails("power_bounded", cert, {"prefix_len": m, "partial_sum_gt": 1.0})
    return v.open("power_bounded", "absolute sum sits inside the tolerance band around 1")


def classify_hat_power_bounded_infinite(space: SpaceSpec, theta: Symbol,
                                        grid: GridParams = GridParams()) -> Verdict:
    """Sufficient route for near-delta symbols, certified lower-growth route
    for failures, grid evidence otherwise (the criterion quantifies over all
    grades; no computable test covers generic symbols)."""
    if space.is_finite_type:
        raise UnsupportedSpace("this route is the infinite-type criterion")
    require_member(space, theta, grid.N)
    evidence: dict = {}
    v = _Verdicts(space, "hat", theta=theta, evidence=evidence)
    if theta.is_zero:
        cert = Certificate("zero_operator", {}, "the zero operator is power bounded")
        return v.holds("power_bounded", cert)
    delta = _scaled_delta(theta)
    if delta is not None:
        c_abs = _exact_abs(delta[0])
        c_float = abs(delta[0])
        if (c_abs is not None and c_abs <= 1) or (c_abs is None and c_float <= 1 - _TOL):
            cert = Certificate(
                "hat_delta_power_norms", {"c": str(delta[0])},
                "scalar symbol: power norms are |c|^k * ||e_1||_p <= ||e_1||_p")
            return v.holds("power_bounded", cert)
        if (c_abs is not None and c_abs > 1) or (c_abs is None and c_float > 1 + _TOL):
            cert = Certificate(
                "hat_conv_power_lower_growth",
                {"route": "theta0", "growth": exact_float(c_float, "|theta_0|")},
                "first-column norms grow like |c|^k, unbounded over powers")
            return v.fails("power_bounded", cert, {"k": grid.K, "n": 1, "p": 1})
        return v.open("power_bounded", "scalar magnitude inside the tolerance band around 1")
    if theta.kind is SymbolKind.FINITE:
        growth = None
        entries = prefix(theta, theta.bounded_support())
        c0 = _exact_abs(entries[0])
        nonneg = all(not isinstance(x, complex) and x >= 0 for x in entries)
        if nonneg and theta.is_exact:
            g = sum(Fraction(x) for x in entries)
            evidence["nonneg_sum"] = exact_float(g, "the nonnegative sum")
            if g > 1:
                growth = ("nonneg_sum", evidence["nonneg_sum"])
        if growth is None and c0 is not None and c0 > 1:
            growth = ("theta0", exact_float(c0, "|theta_0|"))
        if growth is not None:
            cert = Certificate(
                "hat_conv_power_lower_growth",
                {"route": growth[0], "growth": growth[1]},
                "certified lower bound: power norms dominate growth^k")
            return v.fails("power_bounded", cert, {"k": grid.K, "n": 1, "p": 1})
    # evidence sweep: s_p = max_k ||theta^{*k}||_p and the growth ratio of the
    # top half of the power range (truncation sized so finite supports never
    # spill past the window)
    K = min(grid.K, 64)
    sup = theta.bounded_support()
    trunc = max(grid.N, K * max((sup or 1) - 1, 1) + 1)
    # the first power's norms are symbol_log_norm_bounds' (its tail's errors too); a
    # cut later power is summed on the _NORM_WINDOW coefficients that function reads
    grades = range(1, grid.P + 1)
    first = [symbol_log_norm_bounds(space, float_symbol(theta), p)[0] for p in grades]
    mags, windows = float_power_rows(theta, K, trunc)
    logs = log_nonneg(mags[1:])
    logs[np.isfinite(windows[1:]), _NORM_WINDOW:] = NEG_INF
    rest = [sum_exp_rows(logs + space.log_weights(1, logs.shape[1], p)) for p in grades]
    log_norms = np.vstack([first, np.stack(rest, axis=1)])
    ratios = log_norms[1:] - log_norms[:-1]
    top = ratios[ratios.shape[0] // 2:]
    median_ratio = np.exp(np.median(top, axis=0))
    evidence.update({
        "s_p": {str(p): float(np.exp(log_norms[:, p - 1].max()))
                for p in range(1, grid.P + 1)},
        "median_growth_ratio": {str(p): float(median_ratio[p - 1])
                                for p in range(1, grid.P + 1)},
        "growth_suspected": bool((median_ratio > 1.0 + 10 * _TOL).any()),
    })
    return v.open("power_bounded",
                  "no certificate settles the power-norm supremum for this symbol")


# ---------------------------------------------------------------------------
# Dual (backward) operator classifiers
# ---------------------------------------------------------------------------


_PROPS = ("topologizable", "m_topologizable", "power_bounded")


def _dual_preconditions(space: SpaceSpec, beta: Symbol, grid: GridParams):
    cert = fit_dual_certificate(space, beta, N=min(grid.N, 512))
    if cert is None:
        raise OperatorContractError("beta admits no dual membership certificate")
    if not nuclearity_check(space).nuclear:
        raise OperatorContractError("the dual-operator criteria need a nuclear space")
    return cert


def _beta0_class(beta: Symbol) -> str:
    """Magnitude class of beta_0: 'lt1' | 'eq1' | 'gt1' | 'boundary'."""
    b0 = coeff(beta, 0)
    ex = _exact_abs(b0)
    if ex is not None:
        return "lt1" if ex < 1 else ("eq1" if ex == 1 else "gt1")
    m = abs(b0)
    if m < 1 - _TOL:
        return "lt1"
    if m > 1 + _TOL:
        return "gt1"
    return "boundary"


def _first_positive_support(beta: Symbol) -> Optional[int]:
    """First i >= 1 with beta_i != 0 among the readable coefficients below
    the support bound (a sampled window to its end, an unbounded geometric
    law on its first 64)."""
    sup = beta.bounded_support()
    n = readable_length(beta, sup if sup is not None else math.inf)
    vals = prefix(beta, 64 if n == math.inf else n)
    return next((i for i in range(1, len(vals)) if vals[i] != 0), None)


_CIRCLE_SAMPLES = 2048


def _abs_poly_max_on_circle(beta: Symbol, radius: float):
    """(certified upper, certified lower) bounds for max |B(z)| on |z|=radius,
    via dense sampling plus the derivative Lipschitz bound."""
    coefs = float_prefix(beta, beta.bounded_support()).astype(complex)
    if len(coefs) == 0:
        return 0.0, 0.0, 0.0
    ang = np.linspace(0.0, 2 * math.pi, _CIRCLE_SAMPLES, endpoint=False)
    z = radius * np.exp(1j * ang)
    vals = np.abs(np.polyval(coefs[::-1], z))
    lip = float(np.sum(np.arange(len(coefs)) * np.abs(coefs)
                       * radius ** np.maximum(np.arange(len(coefs)) - 1, 0))) * radius
    step = 2 * math.pi / _CIRCLE_SAMPLES
    vmax = float(vals.max())
    upper = vmax * (1 + 1e-13) + lip * step / 2 + 1e-300
    lower = vmax * (1 - 1e-13)
    arg = float(ang[int(vals.argmax())])
    return upper, lower, arg


def _dual_log_ratios(space: SpaceSpec, beta: Symbol, K: int, n_max: int,
                     Q: int) -> np.ndarray:
    """L[k-1, q-1] = log sup_{n <= n_max} |beta^{*k}_{n-1}| / target_q(n) for
    k <= K and q <= Q.

    The powers' magnitudes are float_power_rows on at most n_max columns,
    which end at the last nonzero one: past it every row is log 0 = -inf,
    which no maximum takes.  L is reduced one q at a time."""
    alpha_n = space.alpha.block(1, n_max)
    qs = np.arange(1, Q + 1)[:, None]
    log_targets = -alpha_n / qs if space.is_finite_type else qs * alpha_n
    logs = log_nonneg(float_power_rows(beta, K, n_max)[0][:, :n_max])
    L = np.empty((K, Q))
    for j in range(Q):
        L[:, j] = np.max(logs - log_targets[j, :logs.shape[1]], axis=1)
    return L


def _dual_evidence(space: SpaceSpec, beta: Symbol, grid: GridParams) -> dict:
    """Shared envelope sweep: L_{k,q} = sup_n |beta^{*k}_{n-1}| / target_q(n)."""
    K = min(grid.K, 64)
    # a sampled window shorter than 8 caps the sweep at its readable length
    n_max = readable_length(beta, max(8, grid.N))
    q_list = list(range(1, grid.Q + 1))
    L = _dual_log_ratios(space, beta, K, n_max, grid.Q)
    # q_k: the first q with L_{k,q} <= log 1e12, or None
    within = L <= math.log(1e12)
    q_k = [int(j) + 1 if hit else None
           for j, hit in zip(within.argmax(axis=1), within.any(axis=1))]
    # geometric-constant fit at the largest workable q
    jq = len(q_list) - 1
    lk = L[:, jq]
    ks = np.arange(1, K + 1, dtype=float)
    finite = np.isfinite(lk)
    fit_ok = False
    d_hat = None
    if finite.sum() >= 4:
        A = np.stack([ks[finite], np.ones(finite.sum())], axis=1)
        sol, *_ = np.linalg.lstsq(A, lk[finite], rcond=None)
        resid = lk[finite] - A @ sol
        d_hat = float(np.exp(sol[0]))
        fit_ok = bool(np.max(np.abs(resid)) < math.log1p(_TOL) * grid.K + 1.0)
    pb_q = None
    for jq, q in enumerate(q_list):
        if float(L[:, jq].max()) <= math.log1p(_TOL):
            pb_q = q
            break
    return {
        "grid": {"N": grid.N, "K": grid.K, "P": grid.P, "Q": grid.Q},
        "q_k": q_k,
        "L_log_at_Q": [float(v) for v in L[:, -1]],
        "mtop_fit": {"D_hat": d_hat, "fit_ok": fit_ok},
        "power_bound_q": pb_q,
    }


def classify_check_all(space: SpaceSpec, beta: Symbol,
                       grid: GridParams = GridParams()) -> dict[str, Verdict]:
    dual_cert = _dual_preconditions(space, beta, grid)
    evidence = _dual_evidence(space, beta, grid)
    evidence["dual_certificate"] = {"c0": dual_cert.c0, "m0": dual_cert.m0}
    v = _Verdicts(space, "check", beta=beta, evidence=evidence)
    if beta.is_zero:
        cert = Certificate("zero_operator", {}, "the zero operator satisfies everything")
        return {prop: v.holds(prop, cert) for prop in _PROPS}
    l1 = _abs_sum_or_none(beta)
    if space.is_finite_type:
        sup = beta.bounded_support()
        top = None if sup is None else v.holds("topologizable", Certificate(
            "finite_support_topologizable", {"support": sup, "q": 1},
            "powers have support k*(s-1)+1, so each power admits "
            "a finite constant against any decay target"))
        found = {"topologizable": top,
                 "m_topologizable": _check_finite_m_top(space, beta, l1, v),
                 "power_bounded": _check_finite_power_bounded(space, beta, l1, v)}
    else:
        found = {"m_topologizable": _check_infinite_m_top(space, beta, l1, v),
                 "power_bounded": _check_infinite_power_bounded(space, beta, grid, l1, v)}
    out = {prop: verdict for prop, verdict in found.items() if verdict is not None}
    for prop in _PROPS:
        out.setdefault(prop, v.open(prop, "no decisive certificate for this symbol class"))
    _propagate_hierarchy(out)
    return out


def _propagate_hierarchy(out: dict[str, Verdict]) -> None:
    """power bounded => m-topologizable => topologizable (and failures flow
    the other way)."""
    chain = ["power_bounded", "m_topologizable", "topologizable"]
    for i, stronger in enumerate(chain[:-1]):
        weaker = chain[i + 1]
        sv, wv = out[stronger], out[weaker]
        if sv.status is Status.HOLDS and wv.status is not Status.HOLDS:
            cert = Certificate("implied_by_power_bounded" if stronger == "power_bounded"
                               else "implied_by_m_topologizable",
                               {"inner": {"rule": sv.certificate.rule,
                                          "params": sv.certificate.params}},
                               f"implied by the {stronger} certificate")
            out[weaker] = replace(sv, prop=weaker, certificate=cert)
    for i in (2, 1):
        weaker, stronger = chain[i], chain[i - 1]
        if out[weaker].status is Status.FAILS and out[stronger].status is not Status.FAILS:
            wv = out[weaker]
            out[stronger] = replace(wv, prop=stronger)


def _check_infinite_m_top(space, beta, l1, v: _Verdicts) -> Optional[Verdict]:
    """m-topologizable from summability, or from the negative-binomial
    envelope of a geometric law on linear alpha."""
    if l1 is not None and not l1.infinite:
        D = max(1.0, l1.upper) * (1.0 + 1e-9)
        cert = Certificate("young_envelope", {"D": D, "q": 1},
                           "coefficients of every power are bounded by the "
                           "absolute-sum power, which the unit-or-larger "
                           "constant D absorbs")
        return v.holds("m_topologizable", cert)
    if beta.kind is SymbolKind.GEOMETRIC and space.is_linear:
        c_abs, r_abs = abs(beta.c), abs(beta.r)
        x = 0.5
        D = max(1.0, float(c_abs) / (1 - x))
        q = max(1, math.ceil(math.log(float(r_abs) / x) + 1e-12))
        cert = Certificate("dual_negbinomial_envelope",
                           {"x": str(Fraction(1, 2)), "D": D, "q": q},
                           "negative-binomial coefficient bound absorbs the "
                           "polynomial factor of geometric powers")
        return v.holds("m_topologizable", cert)
    return None


def _check_infinite_power_bounded(space, beta, grid, l1, v: _Verdicts) -> Optional[Verdict]:
    b0c = _beta0_class(beta)
    delta = _scaled_delta(beta)
    if b0c == "gt1":
        cert = Certificate("dual_fixed_index_growth",
                           {"witness_n": 1, "form": "beta0_power"},
                           "the (1,1) entry of the k-th power is beta_0^k, unbounded "
                           "against every fixed target" if delta is not None
                           else "fixed-index entries grow like beta_0^k")
        return v.fails("power_bounded", cert, {"n": 1, "k": grid.K})
    if delta is not None:
        return None if b0c == "boundary" else v.holds("power_bounded", Certificate(
            "dual_delta_contraction", {"q": 1},
            "scalar powers |c|^k stay at or below 1 <= e^{q a_n}"))
    if b0c == "eq1":
        j = _first_positive_support(beta)
        if j is not None:
            cert = Certificate("dual_fixed_index_growth",
                               {"witness_n": j + 1, "form": "k_linear"},
                               "with |beta_0| = 1 the entry at the first positive "
                               "support index grows linearly in the power")
            return v.fails("power_bounded", cert, {"n": j + 1, "k": grid.K})
    if l1 is not None and not l1.infinite and _three_way_vs_one(l1) == "le":
        cert = Certificate("dual_l1_contraction", {},
                           "coefficients of every power are bounded by the "
                           "absolute sum <= 1, below every growth target")
        return v.holds("power_bounded", cert)
    if b0c != "lt1" or not space.is_linear:
        return None
    if beta.kind is SymbolKind.FINITE:
        mags = [abs(x) for x in prefix(beta, beta.bounded_support())]
        for q in range(1, 65):
            s_q = mags[0] + math.fsum(
                mags[i] * math.exp(-q * i) for i in range(1, len(mags)))
            if s_q * (1 + 1e-12) <= 1.0:
                cert = Certificate("dual_disc_modulus_bound", {"q": q},
                                   "the symbol's generating function has modulus "
                                   "at most 1 on the circle of radius e^{-q}, so "
                                   "all power coefficients obey the growth target")
                return v.holds("power_bounded", cert)
    elif beta.kind is SymbolKind.GEOMETRIC:
        c_abs, r_abs = float(abs(beta.c)), float(abs(beta.r))
        x = 1.0 - c_abs
        if x > 0:
            q = max(1, math.ceil(math.log(max(r_abs / x, 1e-12)) + 1e-12))
            cert = Certificate("dual_negbinomial_contraction",
                               {"x": f"{Fraction(x).limit_denominator(10**9)}",
                                "D": 1.0, "q": q},
                               "negative-binomial bound with unit constant")
            return v.holds("power_bounded", cert)
    return None


def _check_finite_m_top(space, beta, l1, v: _Verdicts) -> Optional[Verdict]:
    """m-topologizable on index-dominated alpha from the absolute sum: over a
    bounded support, or for a decaying geometric law."""
    if not (space.alpha.dominated_by_index() and l1 is not None and not l1.infinite):
        return None
    sup = beta.bounded_support()
    if sup is not None:
        D = max(1.0, l1.upper) * math.exp(sup) * (1.0 + 1e-9)
        cert = Certificate("young_envelope_shifted", {"D": D, "q": 1, "support": sup},
                           "absolute-sum powers against the decay target cost at "
                           "most e^{s} per power, absorbed into the constant")
        return v.holds("m_topologizable", cert)
    if beta.kind is not SymbolKind.GEOMETRIC:
        return None
    # support is unbounded but the decay target is met grade for grade once
    # the ratio beats e^{-1/q}
    r_abs = float(abs(beta.r))
    q = next((q for q in range(1, 65) if r_abs * math.exp(1.0 / q) < 1), None)
    if q is None:
        return None
    D = max(1.0, float(abs(beta.c)) / (1 - r_abs * math.exp(1.0 / q)) * math.exp(1.0 / q))
    cert = Certificate("dual_geometric_decay_bound_topology", {"q": q, "D": D},
                       "geometric decay dominates the grade target")
    return v.holds("m_topologizable", cert)


def _check_finite_power_bounded(space, beta, l1, v: _Verdicts) -> Optional[Verdict]:
    sup = beta.bounded_support()
    dominated = space.alpha.dominated_by_index()
    if _beta0_class(beta) in ("eq1", "gt1") and space.alpha.value(1) > 0:
        cert = Certificate("dual_fixed_index_floor", {"witness_n": 1},
                           "the (1,1) entry of every power has magnitude >= 1, "
                           "above every decay target")
        return v.fails("power_bounded", cert, {"n": 1, "k": 1})
    if l1 is not None and l1.infinite:
        cert = Certificate("dual_l1_exceeds_on_circle", {},
                           "the generating function's modulus exceeds 1 on the unit "
                           "circle; mean-square growth contradicts every decay target")
        return v.fails("power_bounded", cert, {"n": None, "k": None})
    if l1 is not None and dominated:
        side = _three_way_vs_one(l1)
        if side == "le" and (l1.exact is None or l1.exact < 1) and l1.upper < 1.0:
            if sup is not None:
                q = max(1, math.ceil(sup / max(math.log(1.0 / l1.upper), 1e-12) + 1e-9))
                cert = Certificate("dual_l1_decay_bound", {"q": q, "support": sup},
                                   "absolute-sum powers decay fast enough to meet "
                                   "the grade-q target across the support range")
                return v.holds("power_bounded", cert)
            if beta.kind is SymbolKind.GEOMETRIC:
                c_abs, r_abs = float(abs(beta.c)), float(abs(beta.r))
                for q in range(1, 65):
                    rq = r_abs * math.exp(1.0 / q)
                    if rq < 1 and c_abs / (1 - rq) <= math.exp(-1.0 / q) * (1 - 1e-12):
                        cert = Certificate("dual_geometric_decay_bound", {"q": q},
                                           "the generating function stays below the "
                                           "decay threshold on a circle outside the "
                                           "unit disc")
                        return v.holds("power_bounded", cert)
        elif side == "gt" and beta.kind is SymbolKind.GEOMETRIC:
            cert = Certificate("dual_l1_exceeds_on_circle", {},
                               "for a one-pole symbol the circle maximum equals the "
                               "absolute sum, which exceeds 1")
            return v.fails("power_bounded", cert, {"n": None, "k": None})
    if beta.kind is not SymbolKind.FINITE or not dominated:
        return None
    # circle-modulus routes for finite lists on index-dominated alpha
    for q in range(1, 49):
        upper, _, _ = _abs_poly_max_on_circle(beta, math.exp(1.0 / q))
        if upper <= math.exp(-1.0 / q) * (1 - 1e-12):
            cert = Certificate("dual_circle_modulus_bound", {"q": q},
                               "the generating function stays below e^{-1/q} on "
                               "the circle of radius e^{1/q}")
            return v.holds("power_bounded", cert)
    upper, lower, arg = _abs_poly_max_on_circle(beta, 1.0)
    if lower > 1.0 + 1e-9:
        cert = Certificate("dual_circle_modulus_exceeds", {"angle": arg},
                           "the generating function exceeds 1 in modulus on the "
                           "unit circle; mean-square growth of the powers beats "
                           "every decay target")
        return v.fails("power_bounded", cert, {"angle": arg, "n": None, "k": None})
    return None


def norm_mode(mode: str) -> str:
    m = mode.replace("-", "_").lower()
    aliases = {"topologizable": "topologizable", "m_top": "m_topologizable",
               "m_topologizable": "m_topologizable", "mtop": "m_topologizable",
               "power_bounded": "power_bounded", "pb": "power_bounded",
               "strongly_tame": "strongly_tame"}
    if m not in aliases:
        raise ValueError(f"unknown classification mode {mode!r}")
    return aliases[m]


def classify_operator(op: OperatorSpec, modes: Sequence[str],
                      grid: GridParams) -> dict[str, Verdict]:
    """The verdict of each requested mode by canonical name, in request
    order: the one map from operator kind, space type and mode to a
    classifier, deciding each property once.  A hat or Toeplitz operator's
    topologizable verdict comes from its m_topologizable one."""
    space = op.space
    decided: dict[str, Verdict] = {}
    if op.kind is OperatorKind.TOEPLITZ:
        decided = classify_toeplitz(space, op.theta, op.beta, grid)
        decided["topologizable"] = replace(decided["m_topologizable"], prop="topologizable")
    elif op.kind is OperatorKind.CHECK:
        decided = classify_check_all(space, op.beta, grid)

    def decide(mode: str) -> Verdict:
        if mode not in decided:
            if mode == "strongly_tame":
                decided[mode] = strongly_tame_probe(op, grid).verdict
            elif mode == "power_bounded":
                pb = classify_hat_power_bounded_finite if space.is_finite_type \
                    else classify_hat_power_bounded_infinite
                decided[mode] = pb(space, op.theta, grid)
            elif mode == "m_topologizable":
                decided[mode] = classify_hat_m_top(space, op.theta, grid)
            else:
                decided[mode] = _hat_topologizable(decide("m_topologizable"), grid)
        return decided[mode]

    return {mode: decide(mode) for mode in map(norm_mode, modes)}


# ---------------------------------------------------------------------------
# Strong tameness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameReport:
    grid_constants: dict       # p -> float upper bound for max_n ||T e_n||_p/||e_n||_p
    closed_bounds: dict        # p -> float closed-form bound (when available)
    bound_kind: str
    verdict: Verdict


def strongly_tame_probe(op: OperatorSpec, grid: GridParams = GridParams()) -> TameReport:
    """Per-grade constants max_n ||T e_n||_p / ||e_n||_p plus the closed-form
    bounds available in the linear-alpha setting; Holds when every applicable
    closed bound is finite.  Hat and check operators only: classify_toeplitz
    decides strong tameness of a Toeplitz operator."""
    if op.kind is OperatorKind.TOEPLITZ:
        raise ValueError("strongly_tame_probe covers hat and check operators; "
                         "classify_toeplitz decides a Toeplitz operator")
    space = op.space
    n_max, P = grid.N, grid.P
    constants = {}
    for p in range(1, P + 1):
        logw = space.log_weights(1, n_max, p)
        if op.kind is OperatorKind.HAT:
            log_norms = hat_column_log_norms(space, op.theta, p, n_max)
        else:
            log_norms = check_column_log_norms(space, op.beta, p, n_max)
        constants[p] = float(np.max(np.exp(log_norms - logw)))
    closed: dict[int, float] = {}
    bound_kind = "none"
    reason = "only grid constants available at this truncation"
    if op.kind is OperatorKind.HAT:
        if space.is_linear:
            for p in range(1, P + 1):
                q = 2 * p if space.is_finite_type else p
                _, hi = symbol_log_norm_bounds(space, op.theta, q)
                scale = math.exp(1.0 / (2 * p)) if space.is_finite_type else 1.0
                closed[p] = scale * exp_guarded(hi)
            bound_kind = "hat_linear"
    elif not space.is_finite_type or space.is_linear:
        try:
            dual_sum = _tame_dual_sum(space, op.beta)
        except TailUnbounded as exc:
            reason = f"the dual sum is not settled: {exc}"
            if op.beta.envelope is not None:
                reason += f" (envelope {op.beta.envelope!r})"
        else:
            val = math.inf if dual_sum.infinite else dual_sum.upper
            closed = dict.fromkeys(range(1, P + 1), val)
            bound_kind = "dual_weighted_sum" if space.is_finite_type else "dual_abs_sum"
    v = _Verdicts(space, op.kind.value, op.theta, op.beta, {"grid_constants": constants})
    if closed and all(math.isfinite(c) for c in closed.values()):
        cert = Certificate("strongly_tame_closed_bounds",
                           {"bounds": {str(p): closed[p] for p in closed},
                            "kind": bound_kind},
                           "grade-preserving column bounds with finite closed-form "
                           "constants")
        verdict = v.holds("strongly_tame", cert)
    else:
        verdict = v.open("strongly_tame", reason, evidence={
            "grid_constants": constants, "closed_bounds": {p: closed.get(p) for p in closed}})
    return TameReport(constants, closed, bound_kind, verdict)


# ---------------------------------------------------------------------------
# Toeplitz sufficient conditions
# ---------------------------------------------------------------------------


def classify_toeplitz(space: SpaceSpec, theta: Symbol, beta: Symbol,
                      grid: GridParams = GridParams()) -> dict[str, Verdict]:
    """Sufficient conditions for the mixed operator on the linear-alpha
    spaces: summable dual side gives strong tameness (hence
    m-topologizability); the combined sum at most 1 gives power boundedness.
    Failing a sufficient condition proves nothing, so those outcomes stay
    Inconclusive."""
    if not space.is_linear:
        raise UnsupportedSpace("the mixed-operator conditions are stated for alpha_n = n")
    evidence: dict = {}
    v = _Verdicts(space, "toeplitz", theta, beta, evidence)
    # strong tameness (hence m-topologizability) from the dual side's sum
    name = "B" if space.is_finite_type else "A"
    try:
        dual_sum = _tame_dual_sum(space, beta)
        evidence.update({f"{name}_lower": dual_sum.lower, f"{name}_upper": dual_sum.upper,
                         f"{name}_infinite": dual_sum.infinite})
    except TailUnbounded as exc:
        dual_sum = None
        evidence[f"{name}_error"] = str(exc)
    if dual_sum is not None and not dual_sum.infinite:
        cert = Certificate("dual_l1_tame_bound", {f"{name}_upper": dual_sum.upper},
                           "exponentially weighted dual sum finite: both parts are "
                           "grade-preserving, so the sum is strongly tame"
                           if space.is_finite_type else
                           "summable dual side: both parts are grade-preserving, so "
                           "the sum is strongly tame")
        tame = v.holds("strongly_tame", cert)
        out = {"strongly_tame": tame, "m_topologizable": replace(tame, prop="m_topologizable")}
    else:
        why = "the exponentially weighted dual sum is not settled finite" \
            if space.is_finite_type else "the dual absolute sum is not settled finite"
        out = {prop: v.open(prop, why) for prop in ("strongly_tame", "m_topologizable")}
    out["power_bounded"] = _toeplitz_power_bounded(space, theta, beta, dual_sum, v)
    return out


def _toeplitz_power_bounded(space, theta, beta, dual_sum, v: _Verdicts) -> Verdict:
    if not space.is_finite_type:
        if not theta.is_zero or dual_sum is None:
            return v.open("power_bounded",
                          "the supremum of the forward symbol norms over all grades is "
                          "infinite for a nonzero symbol on the infinite type, so the "
                          "sufficient condition cannot certify this operator")
        if _three_way_vs_one(dual_sum) != "le":
            return v.open("power_bounded", "dual sum does not certify the bound")
        cert = Certificate("toeplitz_power_bound_sum",
                           {"A_upper": dual_sum.upper, "q_of_p": {}},
                           "zero forward part and dual sum at most 1")
        return v.holds("power_bounded", cert)
    # sup_p e^{1/2p}||theta||_{2p} + B <= 1; the supremum is the plain
    # absolute sum by monotone convergence
    try:
        s_theta = ell1_norm(theta)
    except TailUnbounded as exc:
        s_theta = None
        v.evidence["S_error"] = str(exc)
    if s_theta is None or dual_sum is None:
        return v.open("power_bounded", "combined sum not settled")
    v.evidence.update({"S_lower": s_theta.lower, "S_upper": s_theta.upper})
    if beta.is_zero and s_theta.exact is not None:
        total = SeriesSum(s_theta.partial, 0.0, exact=s_theta.exact)
    elif s_theta.infinite or dual_sum.infinite:
        total = SeriesSum(math.inf, 0.0, infinite=True)
    else:
        total = SeriesSum(s_theta.lower + dual_sum.lower,
                          (s_theta.upper - s_theta.lower)
                          + (dual_sum.upper - dual_sum.lower))
    if _three_way_vs_one(total) != "le":
        return v.open("power_bounded",
                      "the sufficient combined-sum condition does not certify this "
                      "operator (the criterion is one-sided)")
    cert = Certificate("toeplitz_power_bound_sum",
                       {"B_upper": dual_sum.upper, "S_upper": s_theta.upper, "q_of_p": {}},
                       "combined tame constants stay at or below 1")
    return v.holds("power_bounded", cert)
