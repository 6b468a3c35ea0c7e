"""Verification suites: the proved inequalities swept at desk scale, the
composition identities in exact arithmetic, the classifier battery, and the
quadrature invariants.  Shared by the CLI verify task and the test suite.

Slack convention: every inequality check reports its minimal log-domain
slack, log(rhs) - log(lhs), over the swept grid; the check passes when the
minimum stays above -rel_tol (relative tolerance 1e-12 unless stated).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .classify import (
    GridParams,
    Status,
    UnsupportedSpace,
    classify_check_all,
    strongly_tame_probe,
)
from .numerics import LOG_FLOAT_MAX, estimate_sum_exp_rows, log_nonneg
from .operators import (
    OperatorSpec,
    check_column_log_norms,
    forward_log_sums,
    hat_column_log_norms,
    make_check_operator,
    make_hat_operator,
    symbol_log_norm_bounds,
)
from .oracle import (
    NonReplayable,
    dense_apply,
    dense_check,
    dense_hat,
    dense_toeplitz,
    replay_verdict,
)
from .spaces import (
    DualCertificate,
    SpaceSpec,
    TailUnbounded,
    dual_certificate_check,
    decay_compensation_constant,
    finite_type_space,
    infinite_type_space,
    nuclearity_check,
)
from .symbols import (
    Symbol,
    conv_power,
    conv_power_binary,
    convolve,
    delta_symbol,
    ell1_norm,
    finite_symbol,
    float_power_rows,
    float_prefix,
    float_symbol,
    geometric_symbol,
    prefix,
    readable_length,
    scaled_ints,
    times_power_of_two,
    weighted_beta_sum_finite,
)

REL_TOL = 1e-12


@dataclass(frozen=True)
class SweepOutcome:
    name: str
    passed: bool
    min_slack: float          # minimal log-domain slack over the grid
    detail: dict = field(default_factory=dict)
    runtime: float = 0.0

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return (f"{self.name}: {mark} min_slack={self.min_slack:.3e} "
                f"({self.runtime:.2f}s)")


def _outcome(name: str, slacks: list[float], t0: float, tol: float = REL_TOL,
             detail: Optional[dict] = None) -> SweepOutcome:
    # min() would skip a NaN slack after the first entry; NaN fails instead
    m = math.nan if any(map(math.isnan, slacks)) else min(slacks, default=math.inf)
    return SweepOutcome(name, m >= -tol, m, detail or {}, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Random certified symbols
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random, mag: int = 8) -> Fraction:
    num = rng.randint(-mag, mag)
    den = 2 ** rng.randint(0, 3)
    return Fraction(num, den)


def random_finite_rational(rng: random.Random, max_support: int = 8,
                           mag: int = 8) -> Symbol:
    n = rng.randint(1, max_support)
    entries = [random_rational(rng, mag) for _ in range(n)]
    if all(v == 0 for v in entries):
        entries[rng.randrange(n)] = Fraction(1, 2)
    return finite_symbol(entries)


def random_theta_finite_space(rng: random.Random) -> Symbol:
    """Members of the finite-type space: finite lists or decaying geometrics."""
    if rng.random() < 0.6:
        return random_finite_rational(rng)
    c = Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 2))
    r = Fraction(rng.randint(1, 7), 8)
    return geometric_symbol(c if rng.random() < 0.8 else -c, r)


def random_theta_infinite_space(rng: random.Random) -> Symbol:
    return random_finite_rational(rng, max_support=6, mag=4)


def random_beta_infinite_space(rng: random.Random) -> Symbol:
    roll = rng.random()
    if roll < 0.5:
        return random_finite_rational(rng, max_support=6, mag=6)
    if roll < 0.8:
        c = Fraction(rng.randint(1, 4), 2 ** rng.randint(0, 2))
        r = Fraction(rng.randint(1, 6), 4)  # growth allowed in the dual
        return geometric_symbol(c, r)
    return delta_symbol(random_rational(rng, mag=4))


def random_beta_finite_space(rng: random.Random) -> Symbol:
    roll = rng.random()
    if roll < 0.5:
        return random_finite_rational(rng, max_support=6, mag=4)
    if roll < 0.8:
        c = Fraction(rng.randint(1, 4), 2 ** rng.randint(0, 2))
        r = Fraction(rng.randint(1, 7), 8)
        return geometric_symbol(c, r)
    return delta_symbol(random_rational(rng, mag=2))


# ---------------------------------------------------------------------------
# Inequality sweeps
# ---------------------------------------------------------------------------


# bounds |estimate - exact| of a cell's slack while its row sum, lhs and rhs
# lie below _EST_RANGE in magnitude (notes/decisions.md section 9)
SLACK_EST_ERR = 1e-9
_EST_RANGE = 2.0 ** 16


def sweep_hat_power_bound(space: SpaceSpec, thetas: Sequence[Symbol],
                          name: str, n_max: int = 256, p_max: int = 8,
                          k_max: int = 1, corrected: bool = False) -> SweepOutcome:
    """||T^k e_n||_p <= C^k(p, k) * ||e_n||_{2p} across the grid.

    corrected=False sweeps the literal displayed constant C = ||theta||_{2p}.
    It is correct for k = 1 on either type and for every k on the infinite
    type.  On the finite type with the library's 1-based indexing it is
    false for k > n (notes/decisions.md refutes it; the minimal slack is
    -(k-1)/(2p), attained by delta at n = 1), so inequality_suite does not
    sweep it there.  corrected=True sweeps the proved same-grade constant:
    an extra factor e^{(k-1)/(2p)} on the finite type (linear alpha),
    nothing extra on the infinite type.

    Truncated powers of enveloped symbols get the sharp tail majorant
    sum_{i>=L} |power_i| a_{n+i,p} <= ell1(theta)^k a_{n+L,p} instead of the
    inflated product-rule envelope, which degrades across many powers.

    Only the minimum and its cell are reported, so each (p, k) cell is first
    estimated within SLACK_EST_ERR, and only the rows of cells that can reach
    the minimum get exact sums (notes/decisions.md section 9).  A theta whose
    powers would leave the normal floats is swept as theta / 2**e, with
    k e log 2 added back to the logs of power k."""
    t0 = time.perf_counter()
    if not space.is_linear:
        raise UnsupportedSpace("the power-bound sweep is stated for alpha_n = n")
    L_conv = n_max + 8 * max(k_max, 1) * 8 + 8
    ks = np.arange(1, k_max + 1)

    def one_symbol(theta: Symbol) -> tuple[float, dict]:
        log_l1 = math.log(max(ell1_norm(theta).upper, 1e-300))
        base = float_symbol(theta)
        # a law of unbounded support and no gap (geometric) keeps its envelope
        # tail in its first power's columns: that row is hat_column_log_norms'
        first = readable_length(base, math.inf) == math.inf and theta.bounded_support() is None
        # powers of a theta with ell1^k_max outside [2^-894, 2^894] would leave
        # the normal floats: theta / 2^e peaks in [1, 2), and k e log 2 goes back
        e = 0
        if abs(k_max * log_l1) > 620.0:
            m = np.abs(float_prefix(base, readable_length(base, L_conv))).max(initial=0.0)
            e = math.frexp(m)[1] - 1 if 0 < m < math.inf else 0
        powers = times_power_of_two(base, -e) if e else base
        log_scale = ks * (e * math.log(2.0))
        cols, unseen = _seen_columns(powers, k_max, p_max, L_conv) \
            if first and space.is_finite_type else (L_conv, None)
        unseen = None if unseen is None else unseen + log_scale[1:]

        def power_rows(cols: int) -> tuple[np.ndarray, list]:
            # |theta^{*k}| as rows (a truncated power on its window), logged once
            mags, windows = float_power_rows(powers, k_max, cols)
            logs = log_nonneg(mags) + log_scale[:, None] if e else log_nonneg(mags)
            return (logs[1:] if first else logs), windows

        rows, windows = power_rows(cols)    # the first cols columns of the rows on L_conv
        windows = [L_conv if w == cols else w for w in windows]
        if not space.is_finite_type and min(windows) < math.inf:
            raise TailUnbounded("a truncated power has no tail majorant against "
                                "the infinite type's growth")
        off = int(first)    # rows[i] is the power k = i + 1 + off
        cells, cut_windows = np.arange(off, k_max), set(windows) - {math.inf}

        grades = []     # per p: w_{n,p}, the rhs rows and a law's exact k = 1 slack
        for p in range(1, p_max + 1):
            rhs = ks[:, None] * symbol_log_norm_bounds(space, theta, 2 * p)[0] \
                + space.log_weights(1, n_max, 2 * p)
            if corrected and space.is_finite_type:
                rhs = rhs + ((ks - 1) / (2.0 * p))[:, None]
            head = _min_slack(rhs[:1], hat_column_log_norms(space, base, p, n_max)[None])[0] \
                if first else None
            grades.append((space.log_weights(1, n_max, p), rhs, head))

        def cell_slacks(p: int, ids: np.ndarray, sums: np.ndarray) -> tuple:
            # ||T^k e_n||_p = w_{n,p} sum_i |theta^{*k}_i| e^{rate i}, k = ids + 1
            w, rhs, _ = grades[p - 1]
            lhs = w + sums[:, None]
            for L in cut_windows:
                cut = [i for i, k in enumerate(ids) if windows[k] == L]
                tail = ks[ids[cut], None] * log_l1 + space.log_weights(1 + L, n_max + L, p)
                lhs[cut] = np.logaddexp(lhs[cut], tail)
            return _min_slack(rhs[ids], lhs), lhs

        # estimate every cell while the margin covers it; c delta's one-term
        # rows are only summed exactly (its corrected cells all tie)
        bounded = k_max > 1 and rows.shape[1] > 1
        est, err = np.zeros((p_max, k_max)), np.full((p_max, k_max), SLACK_EST_ERR)
        for p in range(1, p_max + 1 if bounded else 1):
            _, rhs, head = grades[p - 1]
            rate = -1.0 / p if space.is_finite_type else float(p)
            sums = estimate_sum_exp_rows(rows + rate * np.arange(rows.shape[1]))
            if unseen is not None:  # the exact sum lies in [sums, hi]: centre at hi
                hi = np.logaddexp(sums, unseen - cols / p)
                sums, err[p - 1, off:] = hi, hi - sums + SLACK_EST_ERR
            est[p - 1, off:], lhs = cell_slacks(p, cells, sums)
            est[p - 1, :off] = head
            bounded = bool(np.isfinite(est[p - 1]).all()) and max(
                np.abs(sums).max(), np.abs(rhs).max(), np.abs(lhs).max()) < _EST_RANGE
            if not bounded:
                break
        if bounded:     # a cell with est - err above min(est + err) is above the minimum
            take = est - err <= (est + err).min()
        worst, exact = (math.inf, {}), np.full((p_max, k_max), math.inf)
        for p in range(1, p_max + 1):
            part = np.flatnonzero(take[p - 1, off:]) if bounded else slice(None)
            sums = forward_log_sums(space, rows[part], p, unseen=None if unseen is None
                                    else unseen[part] - cols / p)     # e^{-i/p} past cols
            if sums is None:    # a row its columns cannot settle: all rows on L_conv
                (rows, _), unseen = power_rows(L_conv), None
                sums = forward_log_sums(space, rows[part], p)
            slack = exact[p - 1]    # a cell left out is above the minimum
            slack[:off] = grades[p - 1][2]
            slack[off:][part] = cell_slacks(p, cells[part], sums)[0]
            j = int(np.argmin(slack))   # the first NaN if any: an undefined cell fails the sweep
            if math.isnan(slack[j]):
                return math.nan, {"p": p, "k": j + 1}
            if slack[j] < worst[0]:
                worst = (float(slack[j]), {"p": p, "k": j + 1})
        return worst

    from .numerics import map_cells

    results = map_cells(one_symbol, list(thetas))
    slacks = [s for s, _ in results]
    idx = int(np.argmin(slacks)) if slacks else 0
    argmin = dict(results[idx][1], symbol=idx) if slacks else None
    return _outcome(name, slacks, t0, detail={"argmin": argmin})


def _min_slack(rhs: np.ndarray, lhs: np.ndarray) -> np.ndarray:
    # min over n of rhs - lhs per row; a zero column (lhs = -inf) holds vacuously
    return np.subtract(rhs, lhs, out=np.full(lhs.shape, math.inf),
                       where=lhs != -math.inf).min(axis=1)


def _seen_columns(base: Symbol, K: int, P: int, L: int) -> tuple[int, Optional[np.ndarray]]:
    """(J, log bounds on the mass past column J of the power rows k = 2..K)
    for a law b = base[:L] without gap or support bound on the finite type,
    grades p <= P; (L, None) unless J < L.  b_0^k is in row k, so past J the
    mass is e^-80 of the row's sum: a heuristic the sums check (section 9
    of notes/decisions.md)."""
    b = np.abs(float_prefix(base, L))
    l1 = sum(b.tolist())    # inf past the float range, where fsum would raise
    J = P * (K * math.log(l1 / b[0]) + 80) if b[0] > 0 else math.inf
    if K < 2 or not J < L:
        return L, None
    # sum_j |row_k[j]| <= (1 + gamma_L)^(k-1) l1^k; the factor 2 covers that and
    # the rounding, L * 1e-320 the entries that log_nonneg reads as 1e-320
    unseen = math.log(2.0) + np.logaddexp(np.arange(2, K + 1) * math.log(l1),
                                          math.log(L * 1e-320))
    return (math.ceil(J), unseen) if unseen.max() < LOG_FLOAT_MAX else (L, None)


def sweep_dual_column_bound(space: SpaceSpec,
                            betas: Sequence[tuple[Symbol, DualCertificate]],
                            name: str, n_max: int = 256,
                            p_max: int = 8) -> SweepOutcome:
    """||T_beta e_n||_p <= c0 * D * ||e_n||_{p + m0 + m1} on the nuclear
    infinite-type space."""
    t0 = time.perf_counter()
    nuc = nuclearity_check(space)
    assert nuc.nuclear and nuc.m1 is not None
    log_cd = math.log(nuc.decay_sum)
    slacks = []
    for beta, cert in betas:
        chk = dual_certificate_check(space, beta, cert, n_max)
        assert chk.passed, "certificate must hold on the swept range"
        for p in range(1, p_max + 1):
            q = p + cert.m0 + nuc.m1
            lhs = check_column_log_norms(space, beta, p, n_max)
            rhs = math.log(cert.c0) + log_cd + space.log_weights(1, n_max, q)
            slacks.append(float(np.min(rhs - lhs)))
    return _outcome(name, slacks, t0)


def sweep_tame_bounds(ops: Sequence[OperatorSpec], name: str) -> SweepOutcome:
    """Grade-preserving constants against their closed-form bounds."""
    t0 = time.perf_counter()
    slacks = []
    for op in ops:
        rep = strongly_tame_probe(op)
        for p, bound in rep.closed_bounds.items():
            c = rep.grid_constants[p]
            if c == 0.0:
                slacks.append(math.inf)
            else:
                slacks.append(math.log(bound) - math.log(c))
    return _outcome(name, slacks, t0)


def sweep_partial_sum_weight_bound(n_max: int = 10_000,
                                   p_max: int = 8) -> SweepOutcome:
    """sum_{j<=n} e^{p j} <= D e^{(p+1) n} on the linear infinite type, with
    the module-computed decay-sum constant D."""
    t0 = time.perf_counter()
    space = infinite_type_space()
    nuc = nuclearity_check(space)
    log_d = math.log(nuc.decay_sum)
    n = np.arange(1, n_max + 1, dtype=float)
    slacks = []
    for p in range(1, p_max + 1):
        lhs = np.logaddexp.accumulate(p * n)
        rhs = log_d + (p + nuc.m1) * n
        slacks.append(float(np.min(rhs - lhs)))
    return _outcome("partial_sum_weight_bound", slacks, t0,
                    detail={"D": nuc.decay_sum, "m1": nuc.m1})


def sweep_nuclear_decay_bound(n_max: int = 10_000, k_max: int = 8) -> SweepOutcome:
    """n e^{-n/k} <= D_k e^{-n/(2k)} on the linear finite type with
    D_k = max_n n e^{-n/(2k)} computed once."""
    t0 = time.perf_counter()
    space = finite_type_space()
    n = np.arange(1, n_max + 1, dtype=float)
    slacks = []
    ds = {}
    for k in range(1, k_max + 1):
        dk = decay_compensation_constant(space, k, n_max)
        ds[k] = dk
        lhs = np.log(n) - n / k
        rhs = math.log(dk) - n / (2.0 * k)
        slacks.append(float(np.min(rhs - lhs)))
    return _outcome("nuclear_decay_bound", slacks, t0, detail={"D_k": ds})


def default_certified_betas(space: SpaceSpec, rng: random.Random,
                            count: int) -> list[tuple[Symbol, DualCertificate]]:
    from .spaces import fit_dual_certificate

    gen = random_beta_infinite_space if not space.is_finite_type \
        else random_beta_finite_space
    out = []
    while len(out) < count:
        beta = gen(rng)
        if beta.is_zero:
            continue
        cert = fit_dual_certificate(space, beta, N=512)
        if cert is not None:
            out.append((beta, cert))
    return out


def inequality_suite(symbols_per_case: int = 50, n_max: int = 256,
                     p_max: int = 8, k_max: int = 32,
                     seed: int = 20260810) -> list[SweepOutcome]:
    rng = random.Random(seed)
    fin = finite_type_space()
    inf_ = infinite_type_space()
    thetas_fin = [random_theta_finite_space(rng) for _ in range(symbols_per_case)]
    thetas_inf = [random_theta_infinite_space(rng) for _ in range(symbols_per_case)]
    betas_inf = default_certified_betas(inf_, rng, symbols_per_case)
    betas_fin = default_certified_betas(fin, rng, symbols_per_case)
    outcomes = [
        sweep_hat_power_bound(fin, thetas_fin, "hat_column_bound_finite",
                              n_max, p_max, 1),
        # proved bounds only: the literal finite-type power bound (corrected=
        # False, k > 1) is refuted in notes/decisions.md
        sweep_hat_power_bound(fin, thetas_fin, "hat_power_bound_finite_corrected",
                              n_max, p_max, k_max, corrected=True),
        sweep_hat_power_bound(inf_, thetas_inf, "hat_column_bound_infinite",
                              n_max, p_max, 1),
        sweep_hat_power_bound(inf_, thetas_inf, "hat_power_bound_infinite",
                              n_max, p_max, k_max),
        sweep_dual_column_bound(inf_, betas_inf, "dual_column_bound_infinite",
                                n_max, p_max),
        sweep_tame_bounds([make_hat_operator(fin, th) for th in thetas_fin[:20]],
                          "tame_hat_finite"),
        sweep_tame_bounds([make_hat_operator(inf_, th) for th in thetas_inf[:20]],
                          "tame_hat_infinite"),
        sweep_tame_bounds([make_check_operator(inf_, b)
                           for b, _ in betas_inf[:20]], "tame_dual_infinite"),
        sweep_tame_bounds([make_check_operator(fin, b)
                           for b, _ in betas_fin[:20]
                           if _b_sum_finite(b)], "tame_dual_finite"),
        sweep_partial_sum_weight_bound(),
        sweep_nuclear_decay_bound(),
    ]
    return outcomes


def _b_sum_finite(beta: Symbol) -> bool:
    try:
        return not weighted_beta_sum_finite(beta).infinite
    except TailUnbounded:
        return False


# ---------------------------------------------------------------------------
# Exact composition identities
# ---------------------------------------------------------------------------


def _scaled_ints(sym: Symbol) -> tuple[np.ndarray, int]:
    """Clear denominators: integer numerators and the common denominator."""
    ints, den = scaled_ints(prefix(sym, readable_length(sym, sym.bounded_support())))
    return np.array(ints, dtype=np.int64), den


def _lower_toeplitz(col: np.ndarray, N: int) -> np.ndarray:
    """N x N int64 matrix with entry (i, j) = col[i - j] on and below the
    diagonal (zero past the end of col), zero above it."""
    diags = np.zeros(N, dtype=np.int64)
    diags[:min(N, len(col))] = col[:N]
    idx = np.arange(N)
    return np.tril(diags[np.abs(idx[:, None] - idx[None, :])])


def _int64_power_safe(sym: Symbol, k_max: int) -> bool:
    """Entries of every power up to k_max stay inside int64 after clearing
    denominators (bounded by the scaled absolute sum to the k-th power)."""
    ints, _ = _scaled_ints(sym)
    l1 = int(np.sum(np.abs(ints)))
    return l1 == 0 or l1 ** k_max < 2 ** 60


def identity_case_forward(phi: Symbol, theta: Symbol, N: int, k_max: int) -> bool:
    """Columns of the composed forward operators equal the columns of the
    convolution symbol, exactly (denominator-cleared integer arithmetic);
    power columns iterate the dense action and must match the convolution
    powers, which must in turn match their binary-splitting evaluation."""
    a, da = _scaled_ints(phi)
    b, db = _scaled_ints(theta)
    Mphi = _lower_toeplitz(a, N)
    Mtheta = _lower_toeplitz(b, N)
    product = Mphi @ Mtheta
    gamma = convolve(phi, theta, N)
    g, dg = _scaled_ints(gamma)
    if dg != da * db:
        g = g * (da * db // dg)
    direct = _lower_toeplitz(g, N)
    if not np.array_equal(product, direct):
        return False
    # k-fold extension: iterate the dense matrix action on every basis column
    cols = Mtheta.copy()  # columns of M^1
    for k in range(2, k_max + 1):
        cols = Mtheta @ cols
        pk = conv_power(theta, k, N)
        gk, dgk = _scaled_ints(pk)
        if dgk != db ** k:
            gk = gk * (db ** k // dgk)
        want = _lower_toeplitz(gk, N)
        if not np.array_equal(cols, want):
            return False
        bs = conv_power_binary(theta, k, N)
        if prefix(pk, N) != prefix(bs, N):
            return False
    return True


def oracle_agreement_case(rng: random.Random, N: int) -> bool:
    """Main-path applications agree exactly with the dense oracle."""
    from .operators import Element, check_apply, hat_apply, toeplitz_apply

    theta = random_finite_rational(rng)
    beta = random_finite_rational(rng)
    x_vals = [random_rational(rng) if rng.random() < 0.5 else 0
              for _ in range(N)]
    x = Element(tuple(x_vals))
    xd = list(x_vals)
    got_h = hat_apply(theta, x).values
    want_h = dense_apply(dense_hat(theta, N), xd)
    got_c = check_apply(beta, x).values
    want_c = dense_apply(dense_check(beta, N), xd)
    got_t = toeplitz_apply(theta, beta, x).values
    want_t = dense_apply(dense_toeplitz(theta, beta, N), xd)
    return ([Fraction(v) for v in got_h] == want_h
            and [Fraction(v) for v in got_c] == want_c
            and [Fraction(v) for v in got_t] == want_t)


def _power_safe_symbol(rng: random.Random, k_max: int) -> Symbol:
    while True:
        s = random_finite_rational(rng, max_support=8, mag=4)
        if _int64_power_safe(s, k_max):
            return s


def identity_suite(cases: int = 200, N: int = 64, k_max: int = 8,
                   seed: int = 20260811) -> list[SweepOutcome]:
    rng = random.Random(seed)
    t0 = time.perf_counter()
    ok = 0
    for _ in range(cases):
        phi = _power_safe_symbol(rng, k_max)
        theta = _power_safe_symbol(rng, k_max)
        if identity_case_forward(phi, theta, N, k_max):
            ok += 1
    fwd = SweepOutcome("forward_composition_columns", ok == cases,
                       0.0 if ok == cases else -1.0,
                       {"agree": ok, "cases": cases}, time.perf_counter() - t0)
    # the dual composition upper(beta) upper(psi) = (lower(psi) lower(beta))^T
    # with upper(g) = lower(g)^T is the forward identity on the swapped pair
    t0 = time.perf_counter()
    ok = 0
    for _ in range(cases):
        beta = _power_safe_symbol(rng, k_max)
        psi = _power_safe_symbol(rng, k_max)
        if identity_case_forward(psi, beta, N, k_max):
            ok += 1
    dual = SweepOutcome("dual_composition_matrices", ok == cases,
                        0.0 if ok == cases else -1.0,
                        {"agree": ok, "cases": cases}, time.perf_counter() - t0)
    t0 = time.perf_counter()
    agree = sum(oracle_agreement_case(rng, N) for _ in range(cases))
    orc = SweepOutcome("oracle_apply_agreement", agree == cases,
                       0.0 if agree == cases else -1.0,
                       {"agree": agree, "cases": cases}, time.perf_counter() - t0)
    return [fwd, dual, orc]


# ---------------------------------------------------------------------------
# Classifier battery
# ---------------------------------------------------------------------------


def classifier_battery(seed: int = 20260812, count: int = 30,
                       grid: GridParams = GridParams()) -> list[SweepOutcome]:
    rng = random.Random(seed)
    fin = finite_type_space()
    inf_ = infinite_type_space()
    t0 = time.perf_counter()
    hierarchy_ok = True
    replay_ok = True
    stable_ok = True
    checked = 0
    details = []
    big = grid.doubled()
    order = ["power_bounded", "m_topologizable", "topologizable"]
    rank = {Status.HOLDS: 2, Status.INCONCLUSIVE: 1, Status.FAILS: 0}
    for i in range(count):
        if i % 2 == 0:
            space = inf_
            beta = random_beta_infinite_space(rng)
        else:
            space = fin
            beta = random_beta_finite_space(rng)
        try:
            verdicts = classify_check_all(space, beta, grid)
        except Exception as exc:
            details.append({"symbol": beta.describe(), "skipped": str(exc)})
            continue
        checked += 1
        statuses = [verdicts[p].status for p in order]
        for a, b in zip(statuses, statuses[1:]):
            if rank[a] > rank[b] and a is Status.HOLDS:
                hierarchy_ok = False
        if statuses[2] is Status.FAILS and statuses[0] is not Status.FAILS:
            hierarchy_ok = False
        for prop in order:
            v = verdicts[prop]
            if v.decisive:
                try:
                    if not replay_verdict(v):
                        replay_ok = False
                        details.append({"symbol": beta.describe(),
                                        "prop": prop, "replay": "false"})
                except NonReplayable:
                    replay_ok = False
        doubled = classify_check_all(space, beta, big)
        for prop in order:
            a, b = verdicts[prop], doubled[prop]
            if a.decisive and a.status is not b.status:
                stable_ok = False
                details.append({"symbol": beta.describe(), "prop": prop,
                                "flip": (a.status.value, b.status.value)})
    out = [SweepOutcome("classifier_hierarchy", hierarchy_ok,
                        0.0 if hierarchy_ok else -1.0,
                        {"checked": checked}, time.perf_counter() - t0),
           SweepOutcome("classifier_replay", replay_ok,
                        0.0 if replay_ok else -1.0, {"details": details[:8]}, 0.0),
           SweepOutcome("classifier_grid_stability", stable_ok,
                        0.0 if stable_ok else -1.0, {}, 0.0)]
    return out


# ---------------------------------------------------------------------------
# Quadrature suite
# ---------------------------------------------------------------------------


def laurent_suite() -> list[SweepOutcome]:
    from .laurent import laurent_coeffs, rational_symbol

    outcomes = []
    t0 = time.perf_counter()
    slacks = []
    for m in (-3, 0, 3, 5):
        num = [0] * m + [1] if m >= 0 else [1]
        den = [1] if m >= 0 else [0] * (-m) + [1]
        F = rational_symbol(num, den, 0.0, math.inf, "entire")
        for r in (0.5, 1.0, 2.0):
            # reading far-negative coefficients at large radius amplifies
            # float rounding by r^{-n}; keep the window where doubles can
            # deliver the 1e-13 target
            lo = -8 if r <= 1.0 else -2
            co = laurent_coeffs(F, r, lo, 8, 64)
            err = max(abs(co.coeff(n) - (1.0 if n == m else 0.0))
                      for n in range(lo, 9))
            slacks.append(math.log(1e-13) - math.log(max(err, 1e-300)))
    outcomes.append(_outcome("quadrature_monomial_exactness", slacks, t0, tol=0.0))
    t0 = time.perf_counter()
    F = rational_symbol([1], [2, -1], 0.0, 2.0, "disc")
    co = laurent_coeffs(F, 0.9, -20, 20, 512)
    err = max(abs(co.coeff(n) - 2.0 ** (-n - 1)) for n in range(0, 21))
    outcomes.append(SweepOutcome("quadrature_rational_decay", err <= 1e-10,
                                 math.log(1e-10) - math.log(max(err, 1e-300)),
                                 {"max_err": err}, time.perf_counter() - t0))
    t0 = time.perf_counter()
    co2 = laurent_coeffs(F, 0.5, -20, 20, 512)
    ok = all(abs(co.coeff(n) - co2.coeff(n)) <= co.error(n) + co2.error(n)
             for n in range(-20, 21))
    outcomes.append(SweepOutcome("quadrature_radius_independence", ok,
                                 0.0 if ok else -1.0, {}, time.perf_counter() - t0))
    t0 = time.perf_counter()
    # start from a sample count where the alias truncation error is visible,
    # so the estimator has something to shrink before it hits the float floor
    monotone = True
    errs = []
    for M in (8, 16, 32, 64):
        co_m = laurent_coeffs(F, 0.9, -1, 1, M)
        errs.append(max(co_m.errors))
    for a, b in zip(errs, errs[1:]):
        if not b <= a * (1 + 1e-9):
            monotone = False
    outcomes.append(SweepOutcome("quadrature_error_monotone", monotone,
                                 0.0 if monotone else -1.0,
                                 {"errors": errs}, time.perf_counter() - t0))
    return outcomes


SUITES: dict[str, Callable[[], list[SweepOutcome]]] = {
    "inequalities": lambda: inequality_suite(),
    "identities": lambda: identity_suite(),
    "classifiers": lambda: classifier_battery(),
    "laurent": laurent_suite,
}


def run_suite(name: str) -> list[SweepOutcome]:
    if name == "all":
        out = []
        for key in ("inequalities", "identities", "classifiers", "laurent"):
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
