"""Lower/upper triangular Toeplitz actions on truncated elements.

The two primitive operators act columnwise on the basis: the forward
(convolution) operator places the symbol down column n, the dual
(backward) operator places it reversed above the diagonal.  Their sum is
the Toeplitz operator; the diagonal carries theta_0 + beta_0.

Truncation policy: forward application of an N-entry element needs only the
first N symbol coefficients and is exact entrywise; dual application on a
certified-tail element is prefix-truncated, and the per-entry truncation
error is folded into Element.residual with the composed envelope attached
as the output tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .numerics import NEG_INF, fmt17, log_nonneg, sum_exp, sum_exp_rows
from .spaces import (
    FINITE_TAIL,
    FinitelySupported,
    GeometricEnvelope,
    SpaceSpec,
    TailCert,
    TailUnbounded,
    add_envelopes,
    convolve_finite,
    convolve_geometric,
    correlate_envelope,
    fit_dual_certificate,
    fold_values,
    geometric_for,
    nuclearity_check,
    scale_envelope,
    seminorm,
    shift_envelope,
    tail_majorant,
)
from .symbols import (
    _exact_list_conv,
    _float_conv,
    _int_conv,
    _to_block,
    MembershipReport,
    Symbol,
    abs_upper_prefix,
    coeff,
    ell1_norm,
    is_rational,
    membership_check,
    prefix,
    scaled_ints,
    symbol_abs_and_env,
    symbol_envelope,
    trimmed_len,
)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Element:
    """Truncated vector indexed from 1 (values[i] holds x_{i+1}).

    tail bounds the unstored entries; a geometric tail (or one that
    geometric_for rewrites as geometric) bounds every entry, stored or not,
    which is what the composition rules in spaces read.  residual bounds the
    entrywise error of the stored ones (nonzero only after prefix-truncated
    dual applications).
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


def basis_element(n: int, N: int, space: Optional[SpaceSpec] = None) -> Element:
    if n < 1 or n > N:
        raise ValueError("need 1 <= n <= N")
    vals = [0] * N
    vals[n - 1] = 1
    return Element(tuple(vals), FINITE_TAIL, space)


def element_from_symbol(s: Symbol, N: int, space: Optional[SpaceSpec] = None) -> Element:
    """Embed a symbol as x_n = s_{n-1}."""
    tail = shift_envelope(symbol_envelope(s), 1)
    sup = s.bounded_support()
    if sup is not None and sup <= N:
        tail = FINITE_TAIL
    return Element(tuple(prefix(s, N)), tail, space)


def add_elements(x: Element, y: Element) -> Element:
    n = max(len(x.values), len(y.values))
    if len(x.values) != len(y.values):
        if not (x.is_finitely_supported and y.is_finitely_supported):
            raise ValueError("cannot pad elements with nonzero tail certificates")
    vx = list(x.values) + [0] * (n - len(x.values))
    vy = list(y.values) + [0] * (n - len(y.values))
    vals = tuple(a + b for a, b in zip(vx, vy))
    space = x.space or y.space
    # the other summand's envelope does not bound a finitely supported
    # summand's stored entries: fold them in
    if y.is_finitely_supported:
        tail = fold_values(x.tail, y.values, space)
    elif x.is_finitely_supported:
        tail = fold_values(y.tail, x.values, space)
    else:
        tail = add_envelopes(x.tail, y.tail, space)
    return Element(vals, tail, space, x.residual + y.residual)


def scale_element(x: Element, c) -> Element:
    vals = tuple(c * v for v in x.values)
    mag = float(abs(c))
    return Element(vals, scale_envelope(x.tail, mag), x.space, x.residual * mag)


# ---------------------------------------------------------------------------
# Operator specifications
# ---------------------------------------------------------------------------


class OperatorKind(str, Enum):
    HAT = "hat"          # lower triangular (forward convolution)
    CHECK = "check"      # upper triangular (dual convolution)
    TOEPLITZ = "toeplitz"


@dataclass(frozen=True)
class OperatorSpec:
    """An operator is its kind, its space and its symbols; the builders below
    check the hypotheses on them before a spec is made."""

    kind: OperatorKind
    space: SpaceSpec
    theta: Optional[Symbol] = None
    beta: Optional[Symbol] = None


class OperatorContractError(ValueError):
    """The symbols do not satisfy the membership hypotheses for this operator."""


def require_member(space: SpaceSpec, theta: Symbol, N: int) -> MembershipReport:
    """theta's membership report on the first N indices; OperatorContractError
    when it certifies that theta is not a member of the space."""
    membership = membership_check(space, theta, N=N)
    if membership.overall == "not_member":
        raise OperatorContractError("theta is not a member of the space")
    return membership


def make_hat_operator(space: SpaceSpec, theta: Symbol, grid_n: int = 256) -> OperatorSpec:
    require_member(space, theta, grid_n)
    return OperatorSpec(OperatorKind.HAT, space, theta=theta)


def make_check_operator(space: SpaceSpec, beta: Symbol, grid_n: int = 256) -> OperatorSpec:
    if fit_dual_certificate(space, beta, N=grid_n) is None:
        raise OperatorContractError("no dual membership certificate for beta")
    if space.is_finite_type and not nuclearity_check(space).nuclear:
        raise OperatorContractError(
            "dual operator on a finite-type space needs a nuclear space")
    return OperatorSpec(OperatorKind.CHECK, space, beta=beta)


def make_toeplitz_operator(space: SpaceSpec, theta: Symbol, beta: Symbol,
                           grid_n: int = 256) -> OperatorSpec:
    make_hat_operator(space, theta, grid_n)
    make_check_operator(space, beta, grid_n)
    return OperatorSpec(OperatorKind.TOEPLITZ, space, theta=theta, beta=beta)


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------


def hat_column(theta: Symbol, n: int, N: int) -> Element:
    """Image of e_n under the forward operator, truncated at N:
    zeros below n, then theta_0, theta_1, ... down the column."""
    if n < 1:
        raise ValueError("basis index starts at 1")
    vals = [0] * min(n - 1, N) + prefix(theta, max(N - n + 1, 0))
    sup = theta.bounded_support()
    if sup is not None and n - 1 + sup <= N:
        tail = FINITE_TAIL
    else:
        tail = shift_envelope(symbol_envelope(theta), n)  # |x_j| <= env(j - n)
    return Element(tuple(vals), tail)


def check_column(beta: Symbol, n: int, N: Optional[int] = None) -> Element:
    """Image of e_n under the dual operator: (beta_{n-1}, ..., beta_0, 0, ...),
    an exact finite vector."""
    if n < 1:
        raise ValueError("basis index starts at 1")
    N = N or n
    vals = prefix(beta, n)[::-1] + [0] * (N - n)
    return Element(tuple(vals), FINITE_TAIL)


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


def _hat_output_tail(x: Element, theta: Symbol) -> TailCert:
    """Envelope for every entry of theta * x."""
    env_t = symbol_envelope(theta)
    if x.is_finitely_supported:
        if isinstance(env_t, FinitelySupported):
            return FINITE_TAIL
        if not isinstance(env_t, GeometricEnvelope):
            raise TailUnbounded("symbol envelope shape cannot compose with convolution")
        return convolve_finite(x.values, env_t, 1)
    x_geo = geometric_for(x.space, x.tail)
    if x_geo is None:
        raise TailUnbounded("element tail certificate cannot compose with convolution")
    if x_geo.ratio == 0:
        return FINITE_TAIL  # ratio 0 certifies x = 0
    if isinstance(env_t, FinitelySupported):
        return convolve_finite(prefix(theta, theta.bounded_support() or 0), x_geo)
    if not isinstance(env_t, GeometricEnvelope):
        raise TailUnbounded("symbol envelope shape cannot compose with convolution")
    # the symbol-index rule seen through x_n = s_{n-1}
    return shift_envelope(convolve_geometric(shift_envelope(x_geo, -1), env_t), 1)


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


def _exact_correlation(xs: Sequence, bs: Sequence) -> list:
    """c_n = sum_{j=n}^{S} x_j b_{j-n} for n = 1..S, S = len(xs) = len(bs),
    from the denominator-cleared integers of xs and bs.  Entry n is an int
    when every factor in its terms (x_n..x_S and b_0..b_{S-n}) is an integer,
    a Fraction otherwise."""
    S = len(xs)
    X, dx = scaled_ints(xs)
    B, db = scaled_ints(bs)
    d = dx * db
    # rev[S - n] = c_n * d; b's trailing zeros add no term
    rev = _int_conv(X[::-1], B[:trimmed_len(B)], S)
    rev += [0] * (S - len(rev))
    last_x = max((j + 1 for j, v in enumerate(xs) if not isinstance(v, Integral)), default=0)
    first_b = next((i for i, v in enumerate(bs) if not isinstance(v, Integral)), S)
    cut = max(last_x, S - first_b)
    return [Fraction(rev[S - n], d) if n <= cut else rev[S - n] // d
            for n in range(1, S + 1)]


def _float_sum(terms: list):
    """fsum of terms as floats, a complex sum when any term is complex, the
    int 0 for no terms."""
    if not terms:
        return 0
    if any(isinstance(t, complex) for t in terms):
        return complex(np.sum([complex(t) for t in terms]))
    return math.fsum(float(t) for t in terms)


def check_apply(beta: Symbol, x: Element) -> Element:
    """(beta star x)_n = sum_{j>=n} x_j beta_{j-n}; exact for finitely
    supported x, prefix-truncated with a certified residual otherwise.

    Exact entries (finitely supported x, every x_j and beta_i rational) come
    from one integer correlation: entry n is an int when every factor in its
    terms is an int (a numpy integer counts as one and comes back as a Python
    int), a Fraction otherwise, and the int 0 past the support of x."""
    N = x.truncation
    if N == 0:
        return x
    if x.is_finitely_supported:
        S = trimmed_len(x.values)
        xs = x.values[:S]
        bs = prefix(beta, S) if S else []
        if _exact_values(xs) and _exact_values(bs):
            vals = _exact_correlation(xs, bs) + [0] * (N - S)
        else:
            vals = []
            for n in range(1, N + 1):
                terms = [xs[j - 1] * bs[j - n] for j in range(n, S + 1)]
                vals.append(sum(terms) if _exact_values(terms) else _float_sum(terms))
        residual = x.residual
        if residual > 0:
            residual *= math.fsum(abs(b) for b in bs) if bs else 0.0
        return Element(tuple(vals), FINITE_TAIL, x.space, residual)
    x_geo = geometric_for(x.space, x.tail)
    if x_geo is None:
        raise TailUnbounded("dual application needs a geometric tail on the input")
    b_sup = beta.bounded_support()
    l1b = float(ell1_norm(beta).upper) if b_sup is not None else math.inf
    out_tail, extra = correlate_envelope(x_geo, symbol_envelope(beta), N, b_sup, l1b)
    bs_needed = min(N, b_sup) if b_sup is not None else N
    bs = prefix(beta, bs_needed)
    vals = []
    for n in range(1, N + 1):
        hi = min(N, n + bs_needed - 1)
        vals.append(_float_sum([x.values[j - 1] * bs[j - n] for j in range(n, hi + 1)]))
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
# Matrices
# ---------------------------------------------------------------------------


def _float_coeffs(dtype, vals: list, name: str) -> list:
    """dtype(v) for each coefficient; one that overflows a float is a
    ValueError naming its index."""
    out = []
    for i, v in enumerate(vals):
        try:
            out.append(dtype(v))
        except OverflowError:
            raise ValueError(f"coefficient {name}_{i} overflows a float") from None
    return out


def _prefix_to_float(s: Symbol, N: int, name: str) -> list:
    """prefix(s, N); a float law whose c * r**i overflows raises the
    ValueError of _float_coeffs, naming the first such index."""
    try:
        return prefix(s, N)
    except OverflowError:
        for i in range(N):
            try:
                coeff(s, i)
            except OverflowError:
                raise ValueError(f"coefficient {name}_{i} overflows a float") from None
        raise


def toeplitz_matrix(theta: Symbol, beta: Symbol, N: int) -> np.ndarray:
    """N x N float (or complex) truncation: entry (i, j) = theta_{i-j} below,
    beta_{j-i} above, theta_0 + beta_0 on the diagonal (0-based i, j)."""
    if N < 1:
        raise ValueError("need N >= 1")
    th = _prefix_to_float(theta, N, "theta")
    be = _prefix_to_float(beta, N, "beta")
    complex_entries = any(isinstance(v, complex) for v in th + be)
    dtype = complex if complex_entries else float
    # the diagonal theta_0 + beta_0 is read as index 0 of theta
    lower = _float_coeffs(dtype, [th[0] + be[0]] + th[1:], "theta")
    upper = _float_coeffs(dtype, [0] + be[1:], "beta")
    # diagonal i - j of M is diags[N - 1 + i - j]
    diags = np.array(upper[:0:-1] + lower, dtype=dtype)
    idx = np.arange(N)
    # added to zeros, each entry is 0.0 + value: a -0.0 coefficient stores 0.0
    return np.zeros((N, N), dtype=dtype) + diags[N - 1 + idx[:, None] - idx[None, :]]


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
    return replace(x, values=tuple(_to_block(x.values).tolist()))


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


def forward_log_sums(space: SpaceSpec, logs: np.ndarray, p: int,
                     geo: Optional[GeometricEnvelope] = None,
                     unseen: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """log sum_i |s_i| e^{rate i} per row of logs = log |s_i| (rate -1/p on the
    finite type, p on the infinite), plus geo's bound past the row if given:
    ||T_s e_n||_p / w_{n,p}, a forward column over its weight (linear alpha).
    unseen bounds per row the log sum of the terms past the given columns:
    None where a row needs them (sum_exp_rows)."""
    rate = -1.0 / p if space.is_finite_type else float(p)
    out = sum_exp_rows(logs + rate * np.arange(logs.shape[1]), unseen)
    if geo is not None:
        t = geo.ratio * math.exp(rate)
        if t >= 1.0:
            raise TailUnbounded("envelope does not decay against the weights")
        log_tail = math.log(geo.scale) + logs.shape[1] * math.log(t) - math.log1p(-t) \
            if geo.scale > 0 else NEG_INF
        out = np.logaddexp(out, log_tail)
    return out


def _weighted_log_norm(space: SpaceSpec, mags: np.ndarray, geo: Optional[GeometricEnvelope],
                       n: int, p: int) -> tuple[float, float]:
    """(log lower, log upper) for sum_i mags_i a_{n+i,p} over i >= 0: the
    window's sum, and with geo's tail majorant past it."""
    L = len(mags)
    _, lo = sum_exp(log_nonneg(mags) + space.log_weights(n, n + L - 1, p))
    if geo is None:
        return lo, lo
    _, lt = tail_majorant(space, shift_envelope(geo, n), n + L, p)
    return lo, float(np.logaddexp(lo, lt))


def hat_column_log_norms(space: SpaceSpec, s: Symbol, p: int, n_max: int) -> np.ndarray:
    """log upper bounds for the grade-p norms of the forward columns
    ||T_s e_n||_p, n = 1..n_max (tail majorant included)."""
    c, geo = symbol_abs_and_env(s, n_max + 1)
    if space.is_linear:
        log_w = forward_log_sums(space, log_nonneg(c)[None], p, geo)[0]
        return space.log_weights(1, n_max, p) + log_w
    # generic alpha: per-n aggregation
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        out[n - 1] = _weighted_log_norm(space, c, geo, n, p)[1]
    return out


def check_column_log_norms(space: SpaceSpec, s: Symbol, p: int, n_max: int) -> np.ndarray:
    """log upper bounds for the grade-p norms of the dual columns
    ||T_s e_n||_p, n = 1..n_max (exact finite sums on readable coefficients,
    envelope values beyond a sampled window; TailUnbounded past the floats)."""
    try:
        b = abs_upper_prefix(s, n_max)
    except OverflowError:
        raise TailUnbounded("a dual symbol coefficient overflows a float") from None
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


# coefficients summed exactly by symbol_log_norm_bounds; an envelope bounds the rest
_NORM_WINDOW = 2048


def symbol_log_norm_bounds(space: SpaceSpec, s: Symbol, p: int) -> tuple[float, float]:
    """(log lower, log upper) for the embedded symbol norm ||s||_p."""
    vals, geo = symbol_abs_and_env(s, _NORM_WINDOW)
    return _weighted_log_norm(space, vals, geo, 1, p)
