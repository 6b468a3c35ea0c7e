"""Lower/upper triangular Toeplitz actions on truncated elements.

The two primitive operators act columnwise on the basis: the forward
(convolution) operator places the symbol down column n, the dual
(backward) operator places it reversed above the diagonal.  Their sum is
the Toeplitz operator; the diagonal carries theta_0 + beta_0.

Truncation policy: forward application of an N-entry element needs only the
first N symbol coefficients and is exact entrywise; dual application on a
certified-tail element is prefix-truncated, and the per-entry truncation
error is folded into Element.residual with the composed envelope attached
as the output tail.  Powers go through convolution powers of the symbol
for the pure kinds and through iterated application for the mixed Toeplitz
kind, which has no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .numerics import NEG_INF, fmt17, log_nonneg, sum_exp
from .spaces import (
    FINITE_TAIL,
    DualCertificate,
    ExponentialEnvelope,
    FinitelySupported,
    GeometricEnvelope,
    NuclearityCert,
    SpaceSpec,
    StabilityCert,
    TailCert,
    TailUnbounded,
    geometric_for,
    nuclearity_check,
    seminorm,
    shift_envelope,
    stability_constant,
)
from .symbols import (
    ConvPowerTable,
    _exact_list_conv,
    _float_conv,
    MembershipReport,
    Symbol,
    SymbolKind,
    coeff,
    conv_power,
    convolve,
    ell1_norm,
    float_prefix,
    is_rational,
    membership_check,
    prefix,
    symbol_envelope,
    trimmed_len,
)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Element:
    """Truncated vector indexed from 1 (values[i] holds x_{i+1}).

    tail bounds the unstored entries; residual bounds the entrywise error of
    the stored ones (nonzero only after prefix-truncated dual applications).
    """

    values: tuple
    tail: TailCert = FINITE_TAIL
    space: Optional[SpaceSpec] = None
    residual: float = 0.0

    @property
    def truncation(self) -> int:
        return len(self.values)

    @property
    def is_finitely_supported(self) -> bool:
        return isinstance(self.tail, FinitelySupported)

    @property
    def is_exact(self) -> bool:
        return self.residual == 0.0 and all(is_rational(v) for v in self.values)

    def entry(self, n: int):
        if n < 1:
            raise ValueError("elements are indexed from 1")
        if n <= len(self.values):
            return self.values[n - 1]
        if self.is_finitely_supported:
            return 0
        raise IndexError(f"entry {n} beyond truncation with a nonzero tail certificate")


def basis_element(n: int, N: int, space: Optional[SpaceSpec] = None) -> Element:
    if n < 1 or n > N:
        raise ValueError("need 1 <= n <= N")
    vals = [0] * N
    vals[n - 1] = 1
    return Element(tuple(vals), FINITE_TAIL, space)


def element_from_symbol(s: Symbol, N: int, space: Optional[SpaceSpec] = None) -> Element:
    """Embed a symbol as x_n = s_{n-1}."""
    env = symbol_envelope(s)
    tail = shift_envelope(env, 1) if isinstance(env, GeometricEnvelope) else env
    sup = s.bounded_support()
    if sup is not None and sup <= N:
        tail = FINITE_TAIL
    return Element(tuple(prefix(s, N)), tail, space)


def _combine_tails(a: TailCert, b: TailCert, space: Optional[SpaceSpec]) -> TailCert:
    if isinstance(a, FinitelySupported):
        return b
    if isinstance(b, FinitelySupported):
        return a
    ga = a if isinstance(a, GeometricEnvelope) else (geometric_for(space, a) if space else None)
    gb = b if isinstance(b, GeometricEnvelope) else (geometric_for(space, b) if space else None)
    if ga is None or gb is None:
        if isinstance(a, ExponentialEnvelope) and isinstance(b, ExponentialEnvelope) \
                and a.grade == b.grade and a.sign == b.sign:
            return ExponentialEnvelope(a.scale + b.scale, a.grade, a.sign)
        raise TailUnbounded("cannot combine tail certificates of these shapes")
    return GeometricEnvelope(ga.scale + gb.scale, max(ga.ratio, gb.ratio))


def add_elements(x: Element, y: Element) -> Element:
    n = max(len(x.values), len(y.values))
    if len(x.values) != len(y.values):
        if not (x.is_finitely_supported and y.is_finitely_supported):
            raise ValueError("cannot pad elements with nonzero tail certificates")
    vx = list(x.values) + [0] * (n - len(x.values))
    vy = list(y.values) + [0] * (n - len(y.values))
    vals = tuple(a + b for a, b in zip(vx, vy))
    space = x.space or y.space
    return Element(vals, _combine_tails(x.tail, y.tail, space), space,
                   x.residual + y.residual)


def scale_element(x: Element, c) -> Element:
    vals = tuple(c * v for v in x.values)
    tail = x.tail
    mag = abs(c)
    if isinstance(tail, GeometricEnvelope):
        tail = GeometricEnvelope(tail.scale * float(mag), tail.ratio)
    elif isinstance(tail, ExponentialEnvelope):
        tail = ExponentialEnvelope(tail.scale * float(mag), tail.grade, tail.sign)
    return Element(vals, tail, x.space, x.residual * float(mag))


# ---------------------------------------------------------------------------
# Operator specifications
# ---------------------------------------------------------------------------


class OperatorKind(str, Enum):
    HAT = "hat"          # lower triangular (forward convolution)
    CHECK = "check"      # upper triangular (dual convolution)
    TOEPLITZ = "toeplitz"


@dataclass(frozen=True)
class OperatorSpec:
    kind: OperatorKind
    space: SpaceSpec
    theta: Optional[Symbol] = None
    beta: Optional[Symbol] = None
    theta_membership: Optional[MembershipReport] = None
    beta_certificate: Optional[DualCertificate] = None
    stability: Optional[StabilityCert] = None
    nuclearity: Optional[NuclearityCert] = None

    def describe(self) -> str:
        parts = [self.kind.value, "on", self.space.describe()]
        if self.theta is not None:
            parts.append(f"theta={self.theta.describe()}")
        if self.beta is not None:
            parts.append(f"beta={self.beta.describe()}")
        return " ".join(parts)


class OperatorContractError(ValueError):
    """The symbols do not satisfy the membership hypotheses for this operator."""


def make_hat_operator(space: SpaceSpec, theta: Symbol, grid_n: int = 256) -> OperatorSpec:
    membership = membership_check(space, theta, N=grid_n)
    if membership.overall == "not_member":
        raise OperatorContractError("theta is not a member of the space")
    stab = None
    if not space.is_finite_type:
        stab = stability_constant(space.alpha, max(4, grid_n))
    return OperatorSpec(OperatorKind.HAT, space, theta=theta,
                        theta_membership=membership, stability=stab)


def make_check_operator(space: SpaceSpec, beta: Symbol,
                        certificate: Optional[DualCertificate] = None,
                        grid_n: int = 256) -> OperatorSpec:
    from .spaces import dual_certificate_check, fit_dual_certificate

    cert = certificate or fit_dual_certificate(space, beta, N=grid_n)
    if cert is None:
        raise OperatorContractError("no dual membership certificate for beta")
    if certificate is not None:
        res = dual_certificate_check(space, beta, cert, min(grid_n, 256))
        if not res.passed:
            raise OperatorContractError(
                f"dual certificate fails at n = {res.witness}")
    stab = nuc = None
    if space.is_finite_type:
        stab = stability_constant(space.alpha, max(4, grid_n))
        nuc = nuclearity_check(space)
        if not nuc.nuclear:
            raise OperatorContractError(
                "dual operator on a finite-type space needs a nuclear space")
    else:
        nuc = nuclearity_check(space)
    return OperatorSpec(OperatorKind.CHECK, space, beta=beta,
                        beta_certificate=cert, stability=stab, nuclearity=nuc)


def make_toeplitz_operator(space: SpaceSpec, theta: Symbol, beta: Symbol,
                           certificate: Optional[DualCertificate] = None,
                           grid_n: int = 256) -> OperatorSpec:
    hat = make_hat_operator(space, theta, grid_n)
    chk = make_check_operator(space, beta, certificate, grid_n)
    return OperatorSpec(OperatorKind.TOEPLITZ, space, theta=theta, beta=beta,
                        theta_membership=hat.theta_membership,
                        beta_certificate=chk.beta_certificate,
                        stability=hat.stability or chk.stability,
                        nuclearity=chk.nuclearity)


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------


def hat_column(theta: Symbol, n: int, N: int) -> Element:
    """Image of e_n under the forward operator, truncated at N:
    zeros below n, then theta_0, theta_1, ... down the column."""
    if n < 1:
        raise ValueError("basis index starts at 1")
    vals = [0] * min(n - 1, N) + prefix(theta, max(N - n + 1, 0))
    env = symbol_envelope(theta)
    sup = theta.bounded_support()
    if sup is not None and n - 1 + sup <= N:
        tail = FINITE_TAIL
    elif isinstance(env, GeometricEnvelope):
        tail = shift_envelope(env, n)  # |x_j| <= env(j - n)
    else:
        tail = env
    return Element(tuple(vals), tail)


def check_column(beta: Symbol, n: int, N: Optional[int] = None) -> Element:
    """Image of e_n under the dual operator: (beta_{n-1}, ..., beta_0, 0, ...),
    an exact finite vector."""
    if n < 1:
        raise ValueError("basis index starts at 1")
    N = N or n
    vals = [0] * max(N, n)
    for j in range(1, n + 1):
        vals[j - 1] = coeff(beta, n - j)
    return Element(tuple(vals[:max(N, n)]), FINITE_TAIL)


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------


def _exact_values(vals: Sequence) -> bool:
    return all(is_rational(v) for v in vals)


def _forward_conv_values(xs: Sequence, theta: Symbol, N: int) -> list:
    th = prefix(theta, N)
    if _exact_values(xs) and _exact_values(th):
        return list(_exact_list_conv(xs, th, N))
    return _float_conv(xs, th, N) or [0] * N


def _sup_n_poly(t: float) -> float:
    """sup_{n>=1} n * t**n for 0 <= t < 1."""
    if t <= 0.0:
        return 0.0
    n_star = -1.0 / math.log(t)
    best = t
    for n in {1, max(1, math.floor(n_star)), max(1, math.ceil(n_star))}:
        best = max(best, n * t ** n)
    return best


def _hat_output_tail(x: Element, theta: Symbol) -> TailCert:
    """Envelope for (theta * x)_n beyond the truncation."""
    x_geo = x.tail if isinstance(x.tail, GeometricEnvelope) else \
        (geometric_for(x.space, x.tail) if (x.space and not x.is_finitely_supported) else None)
    env_t = symbol_envelope(theta)
    t_fin = isinstance(env_t, FinitelySupported)
    t_geo = env_t if isinstance(env_t, GeometricEnvelope) else None
    if x.is_finitely_supported and t_fin:
        return FINITE_TAIL
    if x.is_finitely_supported:
        if t_geo is None:
            raise TailUnbounded("symbol envelope shape cannot compose with convolution")
        if t_geo.ratio == 0:
            return FINITE_TAIL
        s = t_geo.scale * math.fsum(
            float(abs(v)) * t_geo.ratio ** (-(i + 1)) for i, v in enumerate(x.values) if v != 0)
        return GeometricEnvelope(s, t_geo.ratio)
    if x_geo is None:
        raise TailUnbounded("element tail certificate cannot compose with convolution")
    if t_fin:
        sup = theta.bounded_support() or 0
        if sup == 0:
            return FINITE_TAIL
        if x_geo.ratio == 0:
            return FINITE_TAIL
        s = x_geo.scale * math.fsum(
            float(abs(coeff(theta, i))) * x_geo.ratio ** (-i) for i in range(sup))
        return GeometricEnvelope(s, x_geo.ratio)
    assert t_geo is not None
    rho = max(x_geo.ratio, t_geo.ratio)
    if rho == 0:
        return FINITE_TAIL
    from .symbols import _inflate_ratio

    rho_inf = _inflate_ratio(rho)
    poly = _sup_n_poly(rho / rho_inf)
    return GeometricEnvelope(x_geo.scale * t_geo.scale * max(poly, 1.0) / rho_inf, rho_inf)


def hat_apply(theta: Symbol, x: Element) -> Element:
    """(theta * x)_n = sum_{j<=n} x_j theta_{n-j}; exact on the stored prefix
    (entry n needs only the first n inputs), tail composed from both inputs."""
    N = x.truncation
    if N == 0:
        return x
    vals = _forward_conv_values(list(x.values), theta, N)
    residual = x.residual
    if residual > 0:
        residual = residual * ell1_norm(theta).upper
        if not math.isfinite(residual):
            raise TailUnbounded("cannot propagate entry residual through this symbol")
    return Element(tuple(vals), _hat_output_tail(x, theta), x.space, residual)


def check_apply(beta: Symbol, x: Element) -> Element:
    """(beta star x)_n = sum_{j>=n} x_j beta_{j-n}; exact for finitely
    supported x, prefix-truncated with a certified residual otherwise."""
    N = x.truncation
    if N == 0:
        return x
    if x.is_finitely_supported:
        S = trimmed_len(x.values)
        bs = prefix(beta, S) if S else []
        vals = []
        for n in range(1, N + 1):
            terms = [x.values[j - 1] * bs[j - n] for j in range(n, S + 1)]
            if terms and _exact_values(terms):
                vals.append(sum(terms))
            elif terms:
                vals.append(complex(np.sum([complex(t) for t in terms]))
                            if any(isinstance(t, complex) for t in terms)
                            else math.fsum(float(t) for t in terms))
            else:
                vals.append(0)
        residual = x.residual
        if residual > 0:
            residual *= math.fsum(abs(b) for b in bs) if bs else 0.0
        return Element(tuple(vals), FINITE_TAIL, x.space, residual)
    x_geo = x.tail if isinstance(x.tail, GeometricEnvelope) else \
        (geometric_for(x.space, x.tail) if x.space else None)
    if x_geo is None:
        raise TailUnbounded("dual application needs a geometric tail on the input")
    env_b = symbol_envelope(beta)
    b_geo = env_b if isinstance(env_b, GeometricEnvelope) else None
    b_sup = beta.bounded_support()
    cx, rx = x_geo.scale, x_geo.ratio
    if b_geo is not None and b_geo.ratio > 0 and b_sup is None:
        t = rx * b_geo.ratio
        if t >= 1.0:
            raise TailUnbounded("input tail and symbol growth do not compose summably")
        cb, rb = b_geo.scale, b_geo.ratio
        extra = cx * cb * t ** (N + 1) / (1.0 - t) * max(rb ** (-1.0), rb ** (-float(N)))
        out_tail = GeometricEnvelope(cx * cb / (1.0 - t), rx)
    elif b_sup is not None:
        if rx >= 1.0:
            raise TailUnbounded("input tail does not decay; dual truncation unbounded")
        l1b = float(ell1_norm(beta).upper)
        extra = cx * rx ** (N + 1) / (1.0 - rx) * l1b
        out_tail = GeometricEnvelope(cx * l1b * max(rx ** (-(b_sup - 1)), 1.0), rx)
    else:
        raise TailUnbounded("symbol envelope shape cannot compose with dual application")
    bs_needed = min(N, b_sup) if b_sup is not None else N
    bs = prefix(beta, bs_needed)
    vals = []
    for n in range(1, N + 1):
        hi = min(N, n + bs_needed - 1)
        terms = [x.values[j - 1] * bs[j - n] for j in range(n, hi + 1)]
        vals.append(math.fsum(float(t) for t in terms) if terms and
                    not any(isinstance(t, complex) for t in terms)
                    else (complex(np.sum([complex(t) for t in terms])) if terms else 0))
    residual = x.residual
    if residual > 0:
        residual *= float(ell1_norm(beta).upper)
    return Element(tuple(vals), out_tail, x.space, residual + extra)


def toeplitz_apply(theta: Symbol, beta: Symbol, x: Element) -> Element:
    """Sum of the forward and dual applications; the diagonal contributes
    theta_0 + beta_0 (no double counting: each part carries its own share)."""
    return add_elements(hat_apply(theta, x), check_apply(beta, x))


def apply_operator(op: OperatorSpec, x: Element) -> Element:
    if op.kind is OperatorKind.HAT:
        return hat_apply(op.theta, x)
    if op.kind is OperatorKind.CHECK:
        return check_apply(op.beta, x)
    return toeplitz_apply(op.theta, op.beta, x)


def power_apply(op: OperatorSpec, k: int, x: Element,
                table: Optional[ConvPowerTable] = None) -> Element:
    """k-th power via the symbol route (power of the symbol) for the pure
    kinds, iterated application for the Toeplitz kind."""
    if k < 1:
        raise ValueError("powers start at k = 1")
    N = x.truncation
    if op.kind is OperatorKind.HAT:
        return hat_apply(conv_power(op.theta, k, N, table), x)
    if op.kind is OperatorKind.CHECK:
        return check_apply(conv_power(op.beta, k, N, table), x)
    out = x
    for _ in range(k):
        out = toeplitz_apply(op.theta, op.beta, out)
    return out


def cesaro_mean(op: OperatorSpec, k: int, x: Element) -> Element:
    """(1/k) sum_{m<=k} T^m x, reusing the orbit prefix."""
    if k < 1:
        raise ValueError("need k >= 1")
    cur = x
    acc: Optional[Element] = None
    for _ in range(k):
        cur = apply_operator(op, cur)
        acc = cur if acc is None else add_elements(acc, cur)
    if acc.is_exact:
        return replace(acc, values=tuple(Fraction(v) / k for v in acc.values))
    return scale_element(acc, 1.0 / k)


# ---------------------------------------------------------------------------
# Matrices and composition
# ---------------------------------------------------------------------------


def toeplitz_matrix(theta: Symbol, beta: Symbol, N: int, exact: bool = False):
    """N x N truncation: entry (i, j) = theta_{i-j} below, beta_{j-i} above,
    theta_0 + beta_0 on the diagonal (0-based i, j)."""
    if N < 1:
        raise ValueError("need N >= 1")
    th = prefix(theta, N)
    be = prefix(beta, N)
    if exact:
        return [[(th[i - j] if i > j else (be[j - i] if j > i else th[0] + be[0]))
                 for j in range(N)] for i in range(N)]
    complex_entries = any(isinstance(v, complex) for v in th + be)
    dtype = complex if complex_entries else float
    M = np.zeros((N, N), dtype=dtype)
    for d in range(1, N):
        M += np.diag([dtype(th[d])] * (N - d), -d)
        M += np.diag([dtype(be[d])] * (N - d), d)
    M += np.diag([dtype(th[0] + be[0])] * N)
    return M


def compose_hat(phi: Symbol, theta: Symbol, N: int) -> Symbol:
    """Symbol of the composition of two forward operators: phi * theta
    (the operators commute)."""
    return convolve(phi, theta, N)


def compose_check(beta: Symbol, psi: Symbol, N: int) -> Symbol:
    """Symbol of the composition of two dual operators (applied beta after
    psi): psi * beta (the operators commute)."""
    return convolve(psi, beta, N)


def matrix_csv(M) -> str:
    arr = np.asarray(M)
    return "\n".join(",".join(fmt17(v) for v in row) for row in arr) + "\n"


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    """Per-step and Cesaro seminorm tables for one orbit.

    norms[k-1][p_idx] is an upper bound (tail included) for ||T^k x||_p;
    cesaro[k-1][p_idx] likewise for the k-th Cesaro mean.
    """

    op: OperatorSpec
    start: Element
    K: int
    p_grid: tuple[int, ...]
    log_norms: np.ndarray
    log_cesaro: np.ndarray
    tail_bounds: np.ndarray

    @property
    def norms(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_norms)

    @property
    def cesaro_norms(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_cesaro)

    def ratios(self) -> np.ndarray:
        """Stepwise growth ||T^{k+1}x||_p / ||T^k x||_p in log domain."""
        return self.log_norms[1:] - self.log_norms[:-1]


def _float_element(x: Element) -> Element:
    if any(isinstance(v, complex) for v in x.values):
        vals = tuple(complex(v) for v in x.values)
    else:
        vals = tuple(float(v) for v in x.values)
    return replace(x, values=vals)


def compute_orbit(op: OperatorSpec, x: Element, K: int,
                  p_grid: Sequence[int]) -> OrbitRecord:
    """Iterate the operator K times, recording seminorms and Cesaro means.

    Uses floating entries (orbit tables are diagnostics; exact agreement is
    the oracle's job)."""
    space = op.space
    x0 = _float_element(replace(x, space=space))
    ps = tuple(int(p) for p in p_grid)
    log_norms = np.full((K, len(ps)), NEG_INF)
    log_ces = np.full((K, len(ps)), NEG_INF)
    tails = np.zeros((K, len(ps)))
    cur = x0
    acc: Optional[Element] = None
    for k in range(1, K + 1):
        cur = apply_operator(op, cur)
        acc = cur if acc is None else add_elements(acc, cur)
        mean = scale_element(acc, 1.0 / k)
        for j, p in enumerate(ps):
            tv = seminorm(space, cur, p)
            log_norms[k - 1, j] = tv.log_upper
            tails[k - 1, j] = tv.tail
            log_ces[k - 1, j] = seminorm(space, mean, p).log_upper
    return OrbitRecord(op, x0, K, ps, log_norms, log_ces, tails)


def orbit_csv(rec: OrbitRecord) -> str:
    lines = ["k,p,norm,cesaro_norm,tail_bound"]
    norms = rec.norms
    ces = rec.cesaro_norms
    for k in range(1, rec.K + 1):
        for j, p in enumerate(rec.p_grid):
            lines.append(
                f"{k},{p},{fmt17(norms[k - 1, j])},{fmt17(ces[k - 1, j])},"
                f"{fmt17(rec.tail_bounds[k - 1, j])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Vectorized column-norm kernels (the sweep workhorses)
# ---------------------------------------------------------------------------


def _symbol_abs_and_env(s: Symbol, L: int):
    """Readable |coefficients| plus the geometric envelope that bounds the
    rest (None when the returned prefix is the whole support)."""
    sup = s.bounded_support()
    if s.kind is SymbolKind.FINITE:
        return np.abs(float_prefix(s, sup)), None
    if s.kind is SymbolKind.SAMPLED:
        if sup is not None and len(s.entries) >= sup:
            return np.abs(float_prefix(s, sup)), None
        if s.extension == "zero" and sup is not None:
            return np.abs(float_prefix(s, min(L, sup))), None
        W = min(L, len(s.entries))
    else:
        if sup is not None and sup <= L:
            return np.abs(float_prefix(s, sup)), None
        W = L
    env = symbol_envelope(s)
    geo = env if isinstance(env, GeometricEnvelope) else None
    if geo is None:
        raise TailUnbounded("symbol tail beyond the window is not geometrically bounded")
    return np.abs(float_prefix(s, W)), geo


def hat_column_log_norms(space: SpaceSpec, s: Symbol, p: int, n_max: int,
                         window: Optional[int] = None) -> np.ndarray:
    """log upper bounds for the grade-p norms of the forward columns
    ||T_s e_n||_p, n = 1..n_max (tail majorant included)."""
    L = window or (n_max + 1)
    c, geo = _symbol_abs_and_env(s, L)
    if space.is_linear:
        rate = -1.0 / p if space.is_finite_type else float(p)
        logs = log_nonneg(c) + rate * np.arange(len(c))
        _, log_w = sum_exp(logs)
        if geo is not None:
            t = geo.ratio * math.exp(rate)
            if t >= 1.0:
                raise TailUnbounded("envelope does not decay against the weights")
            log_tail = math.log(geo.scale) + len(c) * math.log(t) - math.log1p(-t) \
                if geo.scale > 0 else NEG_INF
            log_w = np.logaddexp(log_w, log_tail)
        logw_n = space.log_weights(1, n_max, p)
        return logw_n + log_w
    # generic alpha: per-n aggregation
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        logw = space.log_weights(n, n + len(c) - 1, p)
        terms = log_nonneg(c) + logw
        _, lv = sum_exp(terms)
        if geo is not None:
            from .spaces import tail_majorant

            shifted = GeometricEnvelope(geo.scale * geo.ratio ** (-n), geo.ratio)
            _, lt = tail_majorant(space, shifted, n + len(c), p)
            lv = float(np.logaddexp(lv, lt))
        out[n - 1] = lv
    return out


def check_column_log_norms(space: SpaceSpec, s: Symbol, p: int, n_max: int) -> np.ndarray:
    """log upper bounds for the grade-p norms of the dual columns
    ||T_s e_n||_p, n = 1..n_max (exact finite sums on readable coefficients,
    envelope values beyond a sampled window)."""
    from .symbols import abs_upper_prefix

    b = abs_upper_prefix(s, n_max)
    if not np.all(np.isfinite(b)):
        raise TailUnbounded("dual column norms need envelope-bounded coefficients")
    log_b = log_nonneg(b)
    if space.is_linear:
        idx = np.arange(n_max, dtype=float)
        rate = 1.0 / p if space.is_finite_type else -float(p)
        csum = np.logaddexp.accumulate(log_b + rate * idx)
        logw_n = space.log_weights(1, n_max, p)
        return logw_n + csum
    out = np.empty(n_max)
    logw = space.log_weights(1, n_max, p)
    for n in range(1, n_max + 1):
        terms = log_b[:n][::-1] + logw[:n]
        _, out[n - 1] = sum_exp(terms)
    return out


def symbol_log_norm_bounds(space: SpaceSpec, s: Symbol, p: int,
                           window: int = 2048) -> tuple[float, float]:
    """(log lower, log upper) for the embedded symbol norm ||s||_p."""
    vals, geo = _symbol_abs_and_env(s, window)
    L = len(vals)
    logw = space.log_weights(1, L, p) if L else np.zeros(0)
    terms = log_nonneg(vals) + logw
    _, lo = sum_exp(terms)
    hi = lo
    if geo is not None:
        from .spaces import tail_majorant

        elem_env = shift_envelope(geo, 1)
        _, lt = tail_majorant(space, elem_env, L + 1, p)
        hi = float(np.logaddexp(lo, lt))
    return lo, hi
