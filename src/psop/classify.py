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

from .numerics import NEG_INF, exp_guarded, log_nonneg
from .operators import (
    Element,
    OperatorContractError,
    OperatorKind,
    OperatorSpec,
    _float_element,
    check_column_log_norms,
    compute_orbit,
    hat_column_log_norms,
    symbol_log_norm_bounds,
    toeplitz_matrix,
)
from .spaces import (
    GeometricEnvelope,
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
    float_symbol,
    is_rational,
    membership_check,
)


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
    tol: float = 1e-9

    def __post_init__(self):
        if min(self.N, self.K, self.P, self.Q) < 1:
            raise ValueError("grid axes must be >= 1")
        if not 0.0 < self.tol <= 1e-6:
            raise ValueError("tol must lie in (0, 1e-6]")

    def doubled(self) -> "GridParams":
        return GridParams(2 * self.N, 2 * self.K, 2 * self.P, 2 * self.Q, self.tol)


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

    def summary(self) -> str:
        tail = f" [{self.certificate.rule}]" if self.certificate else ""
        return f"{self.prop}: {self.status.value}{tail}"


def _holds(prop, space, kind, cert, *, theta=None, beta=None, evidence=None):
    return Verdict(prop, Status.HOLDS, space, kind, theta, beta, cert,
                   None, evidence or {})


def _fails(prop, space, kind, cert, witness, *, theta=None, beta=None, evidence=None):
    return Verdict(prop, Status.FAILS, space, kind, theta, beta, cert,
                   witness, evidence or {})


def _open(prop, space, kind, reason, *, theta=None, beta=None, evidence=None):
    ev = dict(evidence or {})
    ev.setdefault("reason", reason)
    return Verdict(prop, Status.INCONCLUSIVE, space, kind, theta, beta,
                   None, None, ev)


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


def _three_way_vs_one(total: SeriesSum, tol: float) -> str:
    """'le' / 'gt' / 'boundary' for a tail-bounded sum against 1."""
    if total.infinite:
        return "gt"
    if total.exact is not None:
        return "le" if total.exact <= 1 else "gt"
    if total.upper <= 1.0 - tol:
        return "le"
    if total.lower > 1.0 + tol:
        return "gt"
    return "boundary"


def _first_prefix_exceeding_one(s: Symbol, cap: int = 4096) -> Optional[int]:
    acc = Fraction(0) if s.is_exact else 0.0
    for i in range(cap):
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
    membership = membership_check(space, theta, N=grid.N)
    if membership.overall == "not_member":
        raise OperatorContractError("theta is not a member of the space")
    stab = None if space.is_finite_type else stability_constant(space.alpha, grid.N)
    P = grid.P
    norm_at = {}

    def sym_norm_upper(q: int) -> float:
        if q not in norm_at:
            _, hi = symbol_log_norm_bounds(space, theta, q)
            norm_at[q] = exp_guarded(hi)
        return norm_at[q]

    route = None
    q_of_p: dict[int, int] = {}
    c_p: dict[int, float] = {}
    if space.is_finite_type:
        if space.is_linear:
            route = "same_grade_submultiplicative"
            for p in range(1, P + 1):
                q_of_p[p] = 2 * p
                c_p[p] = math.exp(1.0 / (2 * p)) * sym_norm_upper(2 * p)
        else:
            try:
                l1 = ell1_norm(theta)
            except TailUnbounded:
                l1 = None
            if l1 is not None and not l1.infinite:
                route = "sup_grade_abs_sum"
                for p in range(1, P + 1):
                    q_of_p[p] = 2 * p
                    c_p[p] = l1.upper
    else:
        if space.is_linear:
            route = "tame_linear"
            for p in range(1, P + 1):
                q_of_p[p] = p
                c_p[p] = sym_norm_upper(p)
        elif _subadditive_alpha(space):
            route = "stable_subadditive"
            M = stab.bound
            for p in range(1, P + 1):
                q_of_p[p] = M * p
                c_p[p] = sym_norm_upper(M * p)
    sym_norms = {p: sym_norm_upper(2 * p if space.is_finite_type
                                   else (stab.bound if stab else 1) * p)
                 for p in range(1, P + 1)}
    if route is None:
        return _open(
            "m_topologizable", space, "hat",
            "no k-uniform constant at a fixed grade is certified for this "
            "exponent sequence (the single-application bound doubles the "
            "grade when iterated)",
            theta=theta, evidence={"symbol_norms": sym_norms})
    cert = Certificate(
        "hat_power_norm_envelope",
        {"route": route,
         "q_of_p": {str(p): q for p, q in q_of_p.items()},
         "C_p": {str(p): max(c_p[p], 1.0) * (1.0 + 1e-9) for p in c_p},
         "stability_bound": stab.bound if stab else None},
        "submultiplicative symbol norms give ||T^k e_n||_p <= C_p^k ||e_n||_{q(p)}")
    return _holds("m_topologizable", space, "hat", cert, theta=theta,
                  evidence={"C_p": c_p, "symbol_norms": sym_norms,
                            "membership": membership.overall})


def classify_hat_topologizable(space: SpaceSpec, theta: Symbol,
                               grid: GridParams = GridParams()) -> Verdict:
    """Always decisive: the single-application column bound applied to the
    k-th convolution power gives per-power constants L_{k,p} = ||theta^{*k}||
    at the doubled (or stability-scaled) grade, with q fixed in k."""
    mt = classify_hat_m_top(space, theta, grid)
    if mt.status is Status.HOLDS:
        cert = Certificate("implied_by_m_topologizable",
                           {"inner": {"rule": mt.certificate.rule,
                                      "params": mt.certificate.params}},
                           "geometric constants imply per-power constants")
        return replace(mt, prop="topologizable", certificate=cert)
    stab = None if space.is_finite_type else stability_constant(space.alpha, grid.N)
    q_mult = 2 if space.is_finite_type else stab.bound
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
    return _holds("topologizable", space, "hat", cert, theta=theta,
                  evidence={"L_kp": {f"{k},{p}": v for (k, p), v in L.items()},
                            "membership": mt.evidence.get("membership")})


def classify_hat_power_bounded_finite(space: SpaceSpec, theta: Symbol,
                                      grid: GridParams = GridParams()) -> Verdict:
    """Decisive when the absolute sum of the symbol is settled: the operator
    is power bounded exactly when sup_p of the symbol norms, which is the
    plain absolute sum by monotone convergence, is at most 1."""
    if not space.is_finite_type:
        raise UnsupportedSpace("this route is the finite-type criterion")
    kind = "hat"
    try:
        total = ell1_norm(theta)
    except TailUnbounded as exc:
        return _open("power_bounded", space, kind, f"tail certificate cannot settle "
                     f"the absolute sum: {exc}", theta=theta)
    verdictside = _three_way_vs_one(total, grid.tol)
    evidence = {"ell1_lower": total.lower, "ell1_upper": total.upper,
                "ell1_exact": str(total.exact) if total.exact is not None else None}
    if verdictside == "le":
        cert = Certificate(
            "hat_l1_contraction",
            {"sum_exact": str(total.exact) if total.exact is not None else None,
             "sum_upper": total.upper},
            "sup over grades of the symbol norm equals the absolute sum <= 1")
        return _holds("power_bounded", space, kind, cert, theta=theta, evidence=evidence)
    if verdictside == "gt":
        m = _first_prefix_exceeding_one(theta)
        # orbit cross-check: first-column norms grow under convolution powers
        table = ConvPowerTable(float_symbol(theta), grid.N + 4)
        logs = [float(hat_column_log_norms(space, table.power(k), 1, 1)[0])
                for k in range(1, min(grid.K, 32) + 1)]
        evidence["first_column_log_norms"] = logs
        cert = Certificate("hat_l1_exceeds", {"prefix_len": m},
                           "a finite prefix of the absolute sum already exceeds 1")
        return _fails("power_bounded", space, kind, cert,
                      {"prefix_len": m, "partial_sum_gt": 1.0},
                      theta=theta, evidence=evidence)
    return _open("power_bounded", space, kind,
                 "absolute sum sits inside the tolerance band around 1",
                 theta=theta, evidence=evidence)


def classify_hat_power_bounded_infinite(space: SpaceSpec, theta: Symbol,
                                        grid: GridParams = GridParams()) -> Verdict:
    """Sufficient route for near-delta symbols, certified lower-growth route
    for failures, grid evidence otherwise (the criterion quantifies over all
    grades; no computable test covers generic symbols)."""
    if space.is_finite_type:
        raise UnsupportedSpace("this route is the infinite-type criterion")
    kind = "hat"
    stab = stability_constant(space.alpha, grid.N)
    membership = membership_check(space, theta, N=grid.N)
    if membership.overall == "not_member":
        raise OperatorContractError("theta is not a member of the space")
    if theta.is_zero:
        cert = Certificate("zero_operator", {}, "the zero operator is power bounded")
        return _holds("power_bounded", space, kind, cert, theta=theta)
    delta = _scaled_delta(theta)
    if delta is not None:
        c_abs = _exact_abs(delta[0])
        c_float = abs(delta[0])
        if (c_abs is not None and c_abs <= 1) or (c_abs is None and c_float <= 1 - grid.tol):
            cert = Certificate(
                "hat_delta_power_norms", {"c": str(delta[0])},
                "scalar symbol: power norms are |c|^k * ||e_1||_p <= ||e_1||_p")
            return _holds("power_bounded", space, kind, cert, theta=theta)
        if (c_abs is not None and c_abs > 1) or (c_abs is None and c_float > 1 + grid.tol):
            cert = Certificate(
                "hat_conv_power_lower_growth", {"route": "theta0", "growth": float(c_float)},
                "first-column norms grow like |c|^k, unbounded over powers")
            return _fails("power_bounded", space, kind, cert,
                          {"k": grid.K, "n": 1, "p": 1}, theta=theta)
        return _open("power_bounded", space, kind,
                     "scalar magnitude inside the tolerance band around 1", theta=theta)
    evidence = {}
    if theta.kind is SymbolKind.FINITE:
        growth = None
        c0 = _exact_abs(coeff(theta, 0))
        entries = [coeff(theta, i) for i in range(theta.bounded_support() or 0)]
        nonneg = all(not isinstance(v, complex) and v >= 0 for v in entries)
        if nonneg and theta.is_exact:
            g = sum(Fraction(v) for v in entries)
            if g > 1:
                growth = ("nonneg_sum", float(g))
            evidence["nonneg_sum"] = float(g)
        if growth is None and c0 is not None and c0 > 1:
            growth = ("theta0", float(c0))
        if growth is not None:
            cert = Certificate(
                "hat_conv_power_lower_growth",
                {"route": growth[0], "growth": growth[1]},
                "certified lower bound: power norms dominate growth^k")
            return _fails("power_bounded", space, kind, cert,
                          {"k": grid.K, "n": 1, "p": 1}, theta=theta, evidence=evidence)
    # evidence sweep: s_p = max_k ||theta^{*k}||_p and the growth ratio of the
    # top half of the power range (truncation sized so finite supports never
    # spill past the window)
    K = min(grid.K, 64)
    sup = theta.bounded_support()
    trunc = max(grid.N, K * max((sup or 1) - 1, 1) + 1)
    table = ConvPowerTable(float_symbol(theta), trunc)
    log_norms = np.full((K, grid.P), NEG_INF)
    for k in range(1, K + 1):
        pk = table.power(k)
        for j, p in enumerate(range(1, grid.P + 1)):
            lo, _ = symbol_log_norm_bounds(space, pk, p)
            log_norms[k - 1, j] = lo
    ratios = log_norms[1:] - log_norms[:-1]
    top = ratios[ratios.shape[0] // 2:]
    median_ratio = np.exp(np.median(top, axis=0))
    evidence.update({
        "s_p": {str(p): float(np.exp(log_norms[:, p - 1].max()))
                for p in range(1, grid.P + 1)},
        "median_growth_ratio": {str(p): float(median_ratio[p - 1])
                                for p in range(1, grid.P + 1)},
        "growth_suspected": bool((median_ratio > 1.0 + 10 * grid.tol).any()),
    })
    return _open("power_bounded", space, kind,
                 "no certificate settles the power-norm supremum for this symbol",
                 theta=theta, evidence=evidence)


# ---------------------------------------------------------------------------
# Dual (backward) operator classifiers
# ---------------------------------------------------------------------------


_PROPS = ("topologizable", "m_topologizable", "power_bounded")


def _dual_preconditions(space: SpaceSpec, beta: Symbol, grid: GridParams):
    cert = fit_dual_certificate(space, beta, N=min(grid.N, 512))
    if cert is None:
        raise OperatorContractError("beta admits no dual membership certificate")
    nuc = nuclearity_check(space)
    if not nuc.nuclear:
        raise OperatorContractError("the dual-operator criteria need a nuclear space")
    stab = stability_constant(space.alpha, grid.N) if space.is_finite_type else None
    return cert, nuc, stab


def _beta0_class(beta: Symbol, tol: float) -> str:
    """Magnitude class of beta_0: 'lt1' | 'eq1' | 'gt1' | 'boundary'."""
    b0 = coeff(beta, 0)
    ex = _exact_abs(b0)
    if ex is not None:
        return "lt1" if ex < 1 else ("eq1" if ex == 1 else "gt1")
    m = abs(b0)
    if m < 1 - tol:
        return "lt1"
    if m > 1 + tol:
        return "gt1"
    return "boundary"


def _first_positive_support(beta: Symbol) -> Optional[int]:
    sup = beta.bounded_support()
    hi = sup if sup is not None else len(beta.entries) or 64
    for i in range(1, hi):
        if coeff(beta, i) != 0:
            return i
    return None


def _abs_poly_max_on_circle(beta: Symbol, radius: float, samples: int = 2048):
    """(certified upper, certified lower) bounds for max |B(z)| on |z|=radius,
    via dense sampling plus the derivative Lipschitz bound."""
    sup = beta.bounded_support()
    coefs = np.array([complex(coeff(beta, i)) for i in range(sup)])
    if len(coefs) == 0:
        return 0.0, 0.0, 0.0
    ang = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    z = radius * np.exp(1j * ang)
    vals = np.abs(np.polyval(coefs[::-1], z))
    lip = float(np.sum(np.arange(len(coefs)) * np.abs(coefs)
                       * radius ** np.maximum(np.arange(len(coefs)) - 1, 0))) * radius
    step = 2 * math.pi / samples
    vmax = float(vals.max())
    upper = vmax * (1 + 1e-13) + lip * step / 2 + 1e-300
    lower = vmax * (1 - 1e-13)
    arg = float(ang[int(vals.argmax())])
    return upper, lower, arg


def _dual_evidence(space: SpaceSpec, beta: Symbol, grid: GridParams) -> dict:
    """Shared envelope sweep: L_{k,q} = sup_n |beta^{*k}_{n-1}| / target_q(n)."""
    from .symbols import readable_length

    K = min(grid.K, 64)
    n_max = max(8, readable_length(beta, grid.N))
    alpha_n = space.alpha.block(1, n_max)
    q_list = list(range(1, grid.Q + 1))
    table = ConvPowerTable(float_symbol(beta), n_max)
    L = np.full((K, len(q_list)), NEG_INF)
    for k in range(1, K + 1):
        pk = table.power(k)
        a = np.abs(np.array([complex(v) for v in pk.entries[:n_max]], dtype=complex))
        if len(a) < n_max:
            a = np.pad(a, (0, n_max - len(a)))
        la = log_nonneg(a)
        for jq, q in enumerate(q_list):
            # log of sup_n |b^{*k}_{n-1}| / target_q(n)
            log_target = q * alpha_n if not space.is_finite_type else -alpha_n / q
            L[k - 1, jq] = float(np.max(la - log_target))
    q_k = []
    cap = math.log(1e12)
    for k in range(K):
        qs = [q_list[j] for j in range(len(q_list)) if L[k, j] <= cap]
        q_k.append(qs[0] if qs else None)
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
        fit_ok = bool(np.max(np.abs(resid)) < math.log1p(grid.tol) * grid.K + 1.0)
    pb_q = None
    for jq, q in enumerate(q_list):
        if float(L[:, jq].max()) <= math.log1p(grid.tol):
            pb_q = q
            break
    return {
        "grid": {"N": grid.N, "K": grid.K, "P": grid.P, "Q": grid.Q},
        "q_k": q_k,
        "L_log_at_Q": [float(v) for v in L[:, -1]],
        "mtop_fit": {"D_hat": d_hat, "fit_ok": fit_ok},
        "power_bound_q": pb_q,
    }


def _classify_check_all(space: SpaceSpec, beta: Symbol,
                        grid: GridParams) -> dict[str, Verdict]:
    kind = "check"
    dual_cert, nuc, stab = _dual_preconditions(space, beta, grid)
    evidence = _dual_evidence(space, beta, grid)
    evidence["dual_certificate"] = {"c0": dual_cert.c0, "m0": dual_cert.m0}

    def open_v(prop, reason):
        return _open(prop, space, kind, reason, beta=beta, evidence=evidence)

    out: dict[str, Verdict] = {}
    if beta.is_zero:
        cert = Certificate("zero_operator", {}, "the zero operator satisfies everything")
        for prop in _PROPS:
            out[prop] = _holds(prop, space, kind, cert, beta=beta, evidence=evidence)
        return out

    if not space.is_finite_type:
        out.update(_check_infinite_decisions(space, beta, grid, evidence))
    else:
        out.update(_check_finite_decisions(space, beta, grid, evidence))

    for prop in _PROPS:
        out.setdefault(prop, open_v(prop, "no decisive certificate for this symbol class"))
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


def _check_infinite_decisions(space, beta, grid, evidence) -> dict[str, Verdict]:
    kind = "check"
    out: dict[str, Verdict] = {}
    tol = grid.tol
    try:
        l1 = ell1_norm(beta)
    except TailUnbounded:
        l1 = None

    # m-topologizable (hence topologizable) from summability or the
    # negative-binomial envelope on linear alpha
    if l1 is not None and not l1.infinite:
        D = max(1.0, l1.upper) * (1.0 + 1e-9)
        cert = Certificate("young_envelope", {"D": D, "q": 1},
                           "coefficients of every power are bounded by the "
                           "absolute-sum power, which the unit-or-larger "
                           "constant D absorbs")
        out["m_topologizable"] = _holds("m_topologizable", space, kind, cert,
                                        beta=beta, evidence=evidence)
    elif beta.kind is SymbolKind.GEOMETRIC and space.is_linear:
        c_abs, r_abs = abs(beta.c), abs(beta.r)
        x = 0.5
        D = max(1.0, float(c_abs) / (1 - x))
        q = max(1, math.ceil(math.log(float(r_abs) / x) + 1e-12))
        cert = Certificate("dual_negbinomial_envelope",
                           {"x": str(Fraction(1, 2)), "D": D, "q": q},
                           "negative-binomial coefficient bound absorbs the "
                           "polynomial factor of geometric powers")
        out["m_topologizable"] = _holds("m_topologizable", space, kind, cert,
                                        beta=beta, evidence=evidence)

    # power boundedness
    b0c = _beta0_class(beta, tol)
    delta = _scaled_delta(beta)
    if delta is not None:
        if b0c in ("lt1", "eq1"):
            cert = Certificate("dual_delta_contraction", {"q": 1},
                               "scalar powers |c|^k stay at or below 1 <= e^{q a_n}")
            out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                          beta=beta, evidence=evidence)
        elif b0c == "gt1":
            cert = Certificate("dual_fixed_index_growth",
                               {"witness_n": 1, "form": "beta0_power"},
                               "the (1,1) entry of the k-th power is beta_0^k, "
                               "unbounded against every fixed target")
            out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                          {"n": 1, "k": grid.K}, beta=beta,
                                          evidence=evidence)
        return out
    if b0c == "gt1":
        cert = Certificate("dual_fixed_index_growth",
                           {"witness_n": 1, "form": "beta0_power"},
                           "fixed-index entries grow like beta_0^k")
        out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                      {"n": 1, "k": grid.K}, beta=beta, evidence=evidence)
        return out
    if b0c == "eq1":
        j = _first_positive_support(beta)
        if j is not None:
            cert = Certificate("dual_fixed_index_growth",
                               {"witness_n": j + 1, "form": "k_linear"},
                               "with |beta_0| = 1 the entry at the first positive "
                               "support index grows linearly in the power")
            out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                          {"n": j + 1, "k": grid.K}, beta=beta,
                                          evidence=evidence)
            return out
    if l1 is not None and not l1.infinite and _three_way_vs_one(l1, tol) == "le":
        cert = Certificate("dual_l1_contraction", {},
                           "coefficients of every power are bounded by the "
                           "absolute sum <= 1, below every growth target")
        out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                      beta=beta, evidence=evidence)
        return out
    if b0c == "lt1" and space.is_linear:
        if beta.kind is SymbolKind.FINITE:
            sup = beta.bounded_support()
            for q in range(1, 65):
                s_q = abs(coeff(beta, 0)) + math.fsum(
                    abs(coeff(beta, i)) * math.exp(-q * i) for i in range(1, sup))
                if s_q * (1 + 1e-12) <= 1.0:
                    cert = Certificate("dual_disc_modulus_bound", {"q": q},
                                       "the symbol's generating function has modulus "
                                       "at most 1 on the circle of radius e^{-q}, so "
                                       "all power coefficients obey the growth target")
                    out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                                  beta=beta, evidence=evidence)
                    return out
        elif beta.kind is SymbolKind.GEOMETRIC:
            c_abs, r_abs = float(abs(beta.c)), float(abs(beta.r))
            x = 1.0 - c_abs
            if x > 0:
                q = max(1, math.ceil(math.log(max(r_abs / x, 1e-12)) + 1e-12))
                cert = Certificate("dual_negbinomial_contraction",
                                   {"x": f"{Fraction(x).limit_denominator(10**9)}",
                                    "D": 1.0, "q": q},
                                   "negative-binomial bound with unit constant")
                out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                              beta=beta, evidence=evidence)
                return out
    return out


def _check_finite_decisions(space, beta, grid, evidence) -> dict[str, Verdict]:
    kind = "check"
    out: dict[str, Verdict] = {}
    tol = grid.tol
    sup = beta.bounded_support()
    dominated = space.alpha.dominated_by_index()
    try:
        l1 = ell1_norm(beta)
    except TailUnbounded:
        l1 = None

    if sup is not None:
        cert = Certificate("finite_support_topologizable", {"support": sup, "q": 1},
                           "powers have support k*(s-1)+1, so each power admits "
                           "a finite constant against any decay target")
        out["topologizable"] = _holds("topologizable", space, kind, cert,
                                      beta=beta, evidence=evidence)
        if dominated and l1 is not None and not l1.infinite:
            D = max(1.0, l1.upper) * math.exp(sup) * (1.0 + 1e-9)
            cert = Certificate("young_envelope_shifted", {"D": D, "q": 1, "support": sup},
                               "absolute-sum powers against the decay target cost at "
                               "most e^{s} per power, absorbed into the constant")
            out["m_topologizable"] = _holds("m_topologizable", space, kind, cert,
                                            beta=beta, evidence=evidence)
    elif beta.kind is SymbolKind.GEOMETRIC and dominated and l1 is not None \
            and not l1.infinite:
        # decaying geometric: support is unbounded but the decay target is met
        # grade for grade once the ratio beats e^{-1/q}
        r_abs = float(abs(beta.r))
        if r_abs < 1:
            for q in range(1, 65):
                if r_abs * math.exp(1.0 / q) < 1:
                    D = max(1.0, float(abs(beta.c)) / (1 - r_abs * math.exp(1.0 / q))
                            * math.exp(1.0 / q))
                    cert = Certificate("dual_geometric_decay_bound_topology",
                                       {"q": q, "D": D},
                                       "geometric decay dominates the grade target")
                    out["m_topologizable"] = _holds("m_topologizable", space, kind,
                                                    cert, beta=beta, evidence=evidence)
                    break

    b0c = _beta0_class(beta, tol)
    a1 = space.alpha.value(1)
    if b0c in ("eq1", "gt1") and a1 > 0:
        cert = Certificate("dual_fixed_index_floor", {"witness_n": 1},
                           "the (1,1) entry of every power has magnitude >= 1, "
                           "above every decay target")
        out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                      {"n": 1, "k": 1}, beta=beta, evidence=evidence)
        return out
    if l1 is not None and l1.infinite:
        cert = Certificate("dual_l1_exceeds_on_circle", {},
                           "the generating function's modulus exceeds 1 on the unit "
                           "circle; mean-square growth contradicts every decay target")
        out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                      {"n": None, "k": None}, beta=beta, evidence=evidence)
        return out
    if l1 is not None and dominated:
        side = _three_way_vs_one(l1, tol)
        if side == "le" and (l1.exact is None or l1.exact < 1) and l1.upper < 1.0:
            s_eff = sup if sup is not None else None
            if s_eff is not None:
                q = max(1, math.ceil(s_eff / max(math.log(1.0 / l1.upper), 1e-12) + 1e-9))
                cert = Certificate("dual_l1_decay_bound",
                                   {"q": q, "support": s_eff},
                                   "absolute-sum powers decay fast enough to meet "
                                   "the grade-q target across the support range")
                out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                              beta=beta, evidence=evidence)
                return out
            if beta.kind is SymbolKind.GEOMETRIC:
                c_abs, r_abs = float(abs(beta.c)), float(abs(beta.r))
                for q in range(1, 65):
                    rq = r_abs * math.exp(1.0 / q)
                    if rq < 1 and c_abs / (1 - rq) <= math.exp(-1.0 / q) * (1 - 1e-12):
                        cert = Certificate("dual_geometric_decay_bound", {"q": q},
                                           "the generating function stays below the "
                                           "decay threshold on a circle outside the "
                                           "unit disc")
                        out["power_bounded"] = _holds("power_bounded", space, kind,
                                                      cert, beta=beta, evidence=evidence)
                        return out
        elif side == "gt" and beta.kind is SymbolKind.GEOMETRIC:
            cert = Certificate("dual_l1_exceeds_on_circle", {},
                               "for a one-pole symbol the circle maximum equals the "
                               "absolute sum, which exceeds 1")
            out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                          {"n": None, "k": None}, beta=beta,
                                          evidence=evidence)
            return out
    # circle-modulus routes for finite lists on index-dominated alpha
    if beta.kind is SymbolKind.FINITE and dominated and "power_bounded" not in out:
        for q in range(1, 49):
            upper, _, _ = _abs_poly_max_on_circle(beta, math.exp(1.0 / q))
            if upper <= math.exp(-1.0 / q) * (1 - 1e-12):
                cert = Certificate("dual_circle_modulus_bound", {"q": q},
                                   "the generating function stays below e^{-1/q} on "
                                   "the circle of radius e^{1/q}")
                out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                              beta=beta, evidence=evidence)
                return out
        upper, lower, arg = _abs_poly_max_on_circle(beta, 1.0)
        if lower > 1.0 + 1e-9:
            cert = Certificate("dual_circle_modulus_exceeds", {"angle": arg},
                               "the generating function exceeds 1 in modulus on the "
                               "unit circle; mean-square growth of the powers beats "
                               "every decay target")
            out["power_bounded"] = _fails("power_bounded", space, kind, cert,
                                          {"angle": arg, "n": None, "k": None},
                                          beta=beta, evidence=evidence)
            return out
    return out


def classify_check_infinite(space: SpaceSpec, beta: Symbol, mode: str,
                            grid: GridParams = GridParams()) -> Verdict:
    if space.is_finite_type:
        raise UnsupportedSpace("use classify_check_finite on the finite type")
    return _classify_check_all(space, beta, grid)[norm_mode(mode)]


def classify_check_finite(space: SpaceSpec, beta: Symbol, mode: str,
                          grid: GridParams = GridParams()) -> Verdict:
    if not space.is_finite_type:
        raise UnsupportedSpace("use classify_check_infinite on the infinite type")
    return _classify_check_all(space, beta, grid)[norm_mode(mode)]


def classify_check_all(space: SpaceSpec, beta: Symbol,
                       grid: GridParams = GridParams()) -> dict[str, Verdict]:
    return _classify_check_all(space, beta, grid)


def norm_mode(mode: str) -> str:
    m = mode.replace("-", "_").lower()
    aliases = {"topologizable": "topologizable", "m_top": "m_topologizable",
               "m_topologizable": "m_topologizable", "mtop": "m_topologizable",
               "power_bounded": "power_bounded", "pb": "power_bounded"}
    if m not in aliases:
        raise ValueError(f"unknown classification mode {mode!r}")
    return aliases[m]


# ---------------------------------------------------------------------------
# Strong tameness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameReport:
    grid_constants: dict       # p -> float upper bound for max_n ||T e_n||_p/||e_n||_p
    closed_bounds: dict        # p -> float closed-form bound (when available)
    bound_kind: str
    verdict: Verdict
    slack: dict                # p -> closed_bound - grid_constant


def _weighted_beta_sum_finite(beta: Symbol) -> SeriesSum:
    """B = sum |beta_{n-1}| e^n for the finite-type tame bound (alpha = n)."""
    sup = beta.bounded_support()
    if sup is not None:
        partial = math.fsum(abs(coeff(beta, i)) * math.exp(i + 1.0) for i in range(sup))
        return SeriesSum(partial, 0.0)
    if beta.kind is SymbolKind.GEOMETRIC:
        t = float(abs(beta.r)) * math.e
        if t >= 1:
            return SeriesSum(math.inf, 0.0, infinite=True)
        return SeriesSum(float(abs(beta.c)) * math.e / (1 - t), 0.0)
    env = beta.envelope
    W = len(beta.entries)
    partial = math.fsum(abs(v) * math.exp(i + 1.0) for i, v in enumerate(beta.entries))
    if isinstance(env, GeometricEnvelope):
        t = env.ratio * math.e
        if t < 1:
            tail = env.scale * math.e * t ** W / (1 - t)
            return SeriesSum(partial, tail)
        raise TailUnbounded("envelope cannot settle the exponentially weighted sum")
    raise TailUnbounded("no certificate for the exponentially weighted sum")


def strongly_tame_probe(op: OperatorSpec, grid: GridParams = GridParams()) -> TameReport:
    """Per-grade constants max_n ||T e_n||_p / ||e_n||_p plus the closed-form
    bounds available in the linear-alpha setting; Holds when every applicable
    closed bound is finite."""
    space = op.space
    n_max, P = grid.N, grid.P
    constants = {}
    for p in range(1, P + 1):
        logw = space.log_weights(1, n_max, p)
        parts = []
        if op.kind in (OperatorKind.HAT, OperatorKind.TOEPLITZ):
            parts.append(hat_column_log_norms(space, op.theta, p, n_max))
        if op.kind in (OperatorKind.CHECK, OperatorKind.TOEPLITZ):
            parts.append(check_column_log_norms(space, op.beta, p, n_max))
        if len(parts) == 1:
            constants[p] = float(np.max(np.exp(parts[0] - logw)))
        else:
            # triangle bound with the diagonal overlap corrected exactly
            t0 = abs(coeff(op.theta, 0))
            b0 = abs(coeff(op.beta, 0))
            d0 = abs(coeff(op.theta, 0) + coeff(op.beta, 0))
            combo = np.exp(parts[0] - logw) + np.exp(parts[1] - logw) + (d0 - t0 - b0)
            constants[p] = float(np.max(combo))
    closed: dict[int, float] = {}
    bound_kind = "none"
    tame_parts = []
    if op.kind in (OperatorKind.HAT, OperatorKind.TOEPLITZ):
        if space.is_linear:
            for p in range(1, P + 1):
                q = 2 * p if space.is_finite_type else p
                _, hi = symbol_log_norm_bounds(space, op.theta, q)
                scale = math.exp(1.0 / (2 * p)) if space.is_finite_type else 1.0
                closed[p] = closed.get(p, 0.0) + scale * exp_guarded(hi)
            bound_kind = "hat_linear"
            tame_parts.append("hat")
    if op.kind in (OperatorKind.CHECK, OperatorKind.TOEPLITZ):
        if not space.is_finite_type:
            a_sum = ell1_norm(op.beta)
            if a_sum.infinite:
                val = math.inf
            else:
                val = a_sum.upper
            for p in range(1, P + 1):
                closed[p] = closed.get(p, 0.0) + val
            bound_kind = (bound_kind + "+dual_abs_sum").lstrip("+") if tame_parts \
                else "dual_abs_sum"
            tame_parts.append("check")
        elif space.is_linear:
            b_sum = _weighted_beta_sum_finite(op.beta)
            val = math.inf if b_sum.infinite else b_sum.upper
            for p in range(1, P + 1):
                closed[p] = closed.get(p, 0.0) + val
            bound_kind = (bound_kind + "+dual_weighted_sum").lstrip("+") if tame_parts \
                else "dual_weighted_sum"
            tame_parts.append("check")
    covered = (op.kind is OperatorKind.HAT and "hat" in tame_parts) or \
        (op.kind is OperatorKind.CHECK and "check" in tame_parts) or \
        (op.kind is OperatorKind.TOEPLITZ and {"hat", "check"} <= set(tame_parts))
    slack = {p: closed[p] - constants[p] for p in closed} if closed else {}
    if covered and closed and all(math.isfinite(v) for v in closed.values()):
        cert = Certificate("strongly_tame_closed_bounds",
                           {"bounds": {str(p): closed[p] for p in closed},
                            "kind": bound_kind},
                           "grade-preserving column bounds with finite closed-form "
                           "constants")
        verdict = _holds("strongly_tame", space, op.kind.value, cert,
                         theta=op.theta, beta=op.beta,
                         evidence={"grid_constants": constants})
    else:
        verdict = _open("strongly_tame", space, op.kind.value,
                        "only grid constants available at this truncation",
                        theta=op.theta, beta=op.beta,
                        evidence={"grid_constants": constants,
                                  "closed_bounds": {p: closed.get(p) for p in closed}})
    return TameReport(constants, closed, bound_kind, verdict, slack)


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
    kind = "toeplitz"
    out: dict[str, Verdict] = {}
    evidence: dict = {}
    if space.is_finite_type:
        try:
            b_sum = _weighted_beta_sum_finite(beta)
            b_desc = {"B_lower": b_sum.lower, "B_upper": b_sum.upper,
                      "B_infinite": b_sum.infinite}
        except TailUnbounded as exc:
            b_sum, b_desc = None, {"B_error": str(exc)}
        evidence.update(b_desc)
        if b_sum is not None and not b_sum.infinite:
            cert = Certificate("dual_l1_tame_bound",
                               {"B_upper": b_sum.upper},
                               "exponentially weighted dual sum finite: both parts "
                               "are grade-preserving, so the sum is strongly tame")
            v = _holds("strongly_tame", space, kind, cert, theta=theta, beta=beta,
                       evidence=evidence)
            out["strongly_tame"] = v
            out["m_topologizable"] = replace(v, prop="m_topologizable")
        else:
            why = "the exponentially weighted dual sum is not settled finite"
            out["strongly_tame"] = _open("strongly_tame", space, kind, why,
                                         theta=theta, beta=beta, evidence=evidence)
            out["m_topologizable"] = _open("m_topologizable", space, kind, why,
                                           theta=theta, beta=beta, evidence=evidence)
        # power bounded: sup_p e^{1/2p}||theta||_{2p} + B <= 1; the supremum is
        # the plain absolute sum by monotone convergence
        try:
            s_theta = ell1_norm(theta)
        except TailUnbounded as exc:
            s_theta = None
            evidence["S_error"] = str(exc)
        if s_theta is not None and b_sum is not None:
            evidence.update({"S_lower": s_theta.lower, "S_upper": s_theta.upper})
            if beta.is_zero and s_theta.exact is not None:
                total = SeriesSum(s_theta.partial, 0.0, exact=s_theta.exact)
            elif s_theta.infinite or b_sum.infinite:
                total = SeriesSum(math.inf, 0.0, infinite=True)
            else:
                total = SeriesSum(s_theta.lower + b_sum.lower,
                                  (s_theta.upper - s_theta.lower)
                                  + (b_sum.upper - b_sum.lower))
            side = _three_way_vs_one(total, grid.tol)
            if side == "le":
                cert = Certificate("toeplitz_power_bound_sum",
                                   {"B_upper": b_sum.upper,
                                    "S_upper": s_theta.upper,
                                    "q_of_p": {}},
                                   "combined tame constants stay at or below 1")
                out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                              theta=theta, beta=beta, evidence=evidence)
            else:
                out["power_bounded"] = _open(
                    "power_bounded", space, kind,
                    "the sufficient combined-sum condition does not certify this "
                    "operator (the criterion is one-sided)",
                    theta=theta, beta=beta, evidence=evidence)
        else:
            out["power_bounded"] = _open("power_bounded", space, kind,
                                         "combined sum not settled",
                                         theta=theta, beta=beta, evidence=evidence)
        return out
    # infinite type
    try:
        a_sum = ell1_norm(beta)
        evidence.update({"A_lower": a_sum.lower, "A_upper": a_sum.upper,
                         "A_infinite": a_sum.infinite})
    except TailUnbounded as exc:
        a_sum = None
        evidence["A_error"] = str(exc)
    if a_sum is not None and not a_sum.infinite:
        cert = Certificate("dual_l1_tame_bound", {"A_upper": a_sum.upper},
                           "summable dual side: both parts are grade-preserving, "
                           "so the sum is strongly tame")
        v = _holds("strongly_tame", space, kind, cert, theta=theta, beta=beta,
                   evidence=evidence)
        out["strongly_tame"] = v
        out["m_topologizable"] = replace(v, prop="m_topologizable")
    else:
        why = "the dual absolute sum is not settled finite"
        out["strongly_tame"] = _open("strongly_tame", space, kind, why,
                                     theta=theta, beta=beta, evidence=evidence)
        out["m_topologizable"] = _open("m_topologizable", space, kind, why,
                                       theta=theta, beta=beta, evidence=evidence)
    if theta.is_zero and a_sum is not None:
        side = _three_way_vs_one(a_sum, grid.tol)
        if side == "le":
            cert = Certificate("toeplitz_power_bound_sum",
                               {"A_upper": a_sum.upper, "q_of_p": {}},
                               "zero forward part and dual sum at most 1")
            out["power_bounded"] = _holds("power_bounded", space, kind, cert,
                                          theta=theta, beta=beta, evidence=evidence)
            return out
        out["power_bounded"] = _open("power_bounded", space, kind,
                                     "dual sum does not certify the bound",
                                     theta=theta, beta=beta, evidence=evidence)
        return out
    out["power_bounded"] = _open(
        "power_bounded", space, kind,
        "the supremum of the forward symbol norms over all grades is infinite "
        "for a nonzero symbol on the infinite type, so the sufficient condition "
        "cannot certify this operator",
        theta=theta, beta=beta, evidence=evidence)
    return out


# ---------------------------------------------------------------------------
# Mean ergodic probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicReport:
    """Evidence-only: limits are not decidable from finite data."""

    cesaro_ratio: dict          # p -> (best_q, max_k_n ratio at that q)
    orbit_over_k: np.ndarray    # [K, P] log(||T^k x||_p / k)
    mean_estimate: Element      # Cesaro mean at the largest k
    mean_diff_log: np.ndarray   # [K-1, P] log ||T^[k]x - T^[k-1]x||_p
    triangle_ok: bool
    p_grid: tuple


def mean_ergodic_probe(op: OperatorSpec, x: Element,
                       grid: GridParams = GridParams()) -> ErgodicReport:
    from .operators import add_elements, apply_operator, scale_element, seminorm

    space = op.space
    K = min(grid.K, 64)
    ps = tuple(range(1, grid.P + 1))
    rec = compute_orbit(op, x, K, ps)
    ks = np.arange(1, K + 1, dtype=float).reshape(-1, 1)
    orbit_over_k = rec.log_norms - np.log(ks)
    # Cesaro-bound evidence on basis columns: max over k, n of
    # ||T^[k] e_n||_p / ||e_n||_q, minimized over q
    cesaro_ratio = {}
    n_max = min(grid.N, 128)
    col_tables = _cesaro_column_log_norms(op, K, n_max, ps)
    for j, p in enumerate(ps):
        best = None
        for q in range(1, grid.Q + 1):
            logw_q = space.log_weights(1, n_max, q)
            ratio = float(np.max(col_tables[:, j, :] - logw_q[None, :]))
            if best is None or ratio < best[1]:
                best = (q, ratio)
        cesaro_ratio[p] = (best[0], math.exp(min(best[1], 700.0)))
    # successive Cesaro differences at the start element
    cur = _float_element(replace(x, space=space))
    acc = None
    prev_mean = None
    diffs = np.full((K - 1, len(ps)), NEG_INF)
    mean = None
    triangle_ok = True
    running = np.full(len(ps), NEG_INF)
    for k in range(1, K + 1):
        cur = apply_operator(op, cur)
        acc = cur if acc is None else add_elements(acc, cur)
        mean = scale_element(acc, 1.0 / k)
        for j, p in enumerate(ps):
            running[j] = np.logaddexp(running[j], rec.log_norms[k - 1, j])
            lhs = rec.log_cesaro[k - 1, j]
            if lhs > running[j] - math.log(k) + 1e-9:
                triangle_ok = False
        if prev_mean is not None:
            delta = add_elements(mean, scale_element(prev_mean, -1.0))
            for j, p in enumerate(ps):
                diffs[k - 2, j] = seminorm(space, delta, p).log_upper
        prev_mean = mean
    return ErgodicReport(cesaro_ratio, orbit_over_k, mean, diffs, triangle_ok, ps)


def _cesaro_column_log_norms(op: OperatorSpec, K: int, n_max: int,
                             ps: Sequence[int]) -> np.ndarray:
    """log ||T^[k] e_n||_p tables via the symbol route for the pure kinds and
    dense floating truncations (complex when a symbol is) for the mixed kind."""
    from .symbols import finite_symbol, float_prefix, readable_length

    space = op.space
    if op.kind is OperatorKind.HAT:
        n_max = min(n_max, readable_length(op.theta, n_max))
    elif op.kind is OperatorKind.CHECK:
        n_max = min(n_max, readable_length(op.beta, n_max))
    else:
        n_max = min(n_max, readable_length(op.theta, n_max),
                    readable_length(op.beta, n_max))
    out = np.full((K, len(ps), n_max), NEG_INF)
    if op.kind in (OperatorKind.HAT, OperatorKind.CHECK):
        sym = op.theta if op.kind is OperatorKind.HAT else op.beta
        acc = None
        base_len = n_max + 1
        table = ConvPowerTable(float_symbol(sym), base_len)
        for k in range(1, K + 1):
            pk = table.power(k)
            arr = float_prefix(pk, base_len)
            acc = arr if acc is None else acc + arr
            mean = finite_symbol(acc / k)
            for j, p in enumerate(ps):
                if op.kind is OperatorKind.HAT:
                    out[k - 1, j, :] = hat_column_log_norms(space, mean, p, n_max)
                else:
                    out[k - 1, j, :] = check_column_log_norms(space, mean, p, n_max)
        return out
    n_dense = min(n_max, 128)
    M = toeplitz_matrix(op.theta, op.beta, n_dense)
    acc = np.zeros_like(M)
    cur = np.eye(n_dense)
    for k in range(1, K + 1):
        cur = cur @ M
        acc += cur
        mean = acc / k
        logm = log_nonneg(np.abs(mean))
        for j, p in enumerate(ps):
            logw = space.log_weights(1, n_dense, p)
            col_log = logm + logw[:, None]
            mx = col_log.max(axis=0)
            with np.errstate(divide="ignore"):
                out[k - 1, j, :n_dense] = mx + np.log(
                    np.sum(np.exp(col_log - np.where(np.isfinite(mx), mx, 0.0)[None, :]),
                           axis=0))
    return out
