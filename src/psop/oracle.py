"""Independent brute-force ground truth on truncations.

Dense matrices hold exact rationals whenever the symbols are exact; for
irrational inputs the fallback is 50+ digit arithmetic (mpmath) with an
explicit comparison margin.  Nothing here is on any hot path: the module
backs tests and the replay of classification verdicts.

Truncation-then-power equals power-then-truncation exactly for triangular
matrices; for the mixed Toeplitz kind the leading-block stability is
asserted by comparing the N and 2N truncations, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .symbols import Symbol, coeff, is_rational, prefix

MAX_DENSE_N = 512
REPLAY_DPS = 50


class NonReplayable(ValueError):
    """The verdict carries no machine-checkable justification."""


@dataclass(frozen=True)
class DenseTrunc:
    rows: tuple
    source: str
    exact: bool

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]


def _lift(v, exact: bool):
    if exact:
        return Fraction(v)
    if isinstance(v, complex):
        return mpmath.mpc(v.real, v.imag)
    if is_rational(v):
        f = Fraction(v)
        return mpmath.mpf(f.numerator) / f.denominator
    return mpmath.mpf(float(v))


def _num(x):
    """Coerce exact rationals into mpf for mixed comparisons."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return x


def _all_exact(vals) -> bool:
    return all(is_rational(v) for v in vals)


def dense_hat(theta: Symbol, N: int) -> DenseTrunc:
    """Lower triangular truncation with constant diagonals theta_d."""
    if not 1 <= N <= MAX_DENSE_N:
        raise ValueError(f"dense truncations capped at N = {MAX_DENSE_N}")
    th = prefix(theta, N)
    exact = _all_exact(th)
    zero = Fraction(0) if exact else mpmath.mpf(0)
    rows = tuple(tuple(_lift(th[i - j], exact) if i >= j else zero for j in range(N))
                 for i in range(N))
    return DenseTrunc(rows, f"hat({theta.describe()})", exact)


def dense_check(beta: Symbol, N: int) -> DenseTrunc:
    """Upper triangular truncation with constant diagonals beta_d."""
    if not 1 <= N <= MAX_DENSE_N:
        raise ValueError(f"dense truncations capped at N = {MAX_DENSE_N}")
    be = prefix(beta, N)
    exact = _all_exact(be)
    zero = Fraction(0) if exact else mpmath.mpf(0)
    rows = tuple(tuple(_lift(be[j - i], exact) if j >= i else zero for j in range(N))
                 for i in range(N))
    return DenseTrunc(rows, f"check({beta.describe()})", exact)


def dense_toeplitz(theta: Symbol, beta: Symbol, N: int) -> DenseTrunc:
    """Full Toeplitz truncation; the diagonal is theta_0 + beta_0."""
    if not 1 <= N <= MAX_DENSE_N:
        raise ValueError(f"dense truncations capped at N = {MAX_DENSE_N}")
    th = prefix(theta, N)
    be = prefix(beta, N)
    exact = _all_exact(th) and _all_exact(be)
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            if i > j:
                row.append(_lift(th[i - j], exact))
            elif j > i:
                row.append(_lift(be[j - i], exact))
            else:
                row.append(_lift(th[0], exact) + _lift(be[0], exact))
        rows.append(tuple(row))
    return DenseTrunc(tuple(rows), f"toeplitz({theta.describe()},{beta.describe()})", exact)


def dense_apply(M: DenseTrunc, x: Sequence) -> list:
    """Exact matrix-vector product."""
    if len(x) != M.n:
        raise ValueError("dimension mismatch")
    xs = [_lift(v, M.exact) for v in x]
    live = [j for j in range(M.n) if xs[j] != 0]
    zero = Fraction(0) if M.exact else mpmath.mpf(0)
    return [sum((row[j] * xs[j] for j in live if row[j] != 0), zero)
            for row in M.rows]


def dense_matmul(A: DenseTrunc, B: DenseTrunc) -> DenseTrunc:
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    exact = A.exact and B.exact
    n = A.n
    zero = Fraction(0) if exact else mpmath.mpf(0)
    bt = list(zip(*B.rows))
    rows = tuple(tuple(sum((A.rows[i][k] * bt[j][k] for k in range(n)), zero)
                       for j in range(n)) for i in range(n))
    return DenseTrunc(rows, f"({A.source})*({B.source})", exact)


def dense_power(M: DenseTrunc, k: int) -> DenseTrunc:
    if k < 1:
        raise ValueError("powers start at k = 1")
    out = M
    for _ in range(k - 1):
        out = dense_matmul(out, M)
    return DenseTrunc(out.rows, f"({M.source})^{k}", out.exact)


def dense_cesaro(M: DenseTrunc, k: int) -> DenseTrunc:
    """(1/k) * sum of the first k powers, exact."""
    if k < 1:
        raise ValueError("need k >= 1")
    acc = None
    cur = M
    for step in range(1, k + 1):
        acc = cur if acc is None else _dense_add(acc, cur)
        if step < k:
            cur = dense_matmul(cur, M)
    inv = Fraction(1, k) if acc.exact else mpmath.mpf(1) / k
    rows = tuple(tuple(v * inv for v in row) for row in acc.rows)
    return DenseTrunc(rows, f"cesaro_{k}({M.source})", acc.exact)


def _dense_add(A: DenseTrunc, B: DenseTrunc) -> DenseTrunc:
    rows = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A.rows, B.rows))
    return DenseTrunc(rows, f"({A.source})+({B.source})", A.exact and B.exact)


def leading_block(M: DenseTrunc, n: int) -> tuple:
    return tuple(tuple(row[:n]) for row in M.rows[:n])


def column(M: DenseTrunc, j: int) -> list:
    """1-based column extraction (the image of e_j)."""
    return [M.rows[i][j - 1] for i in range(M.n)]


# ---------------------------------------------------------------------------
# Verdict replay
# ---------------------------------------------------------------------------


def _mp_weight(space, n: int, k: int):
    a = mpmath.mpf(space.alpha.value(n))
    return mpmath.e ** (-a / k) if space.is_finite_type else mpmath.e ** (k * a)


def _mp_ell1(sym: Symbol, terms: int = 4096):
    from .symbols import ell1_norm

    s = ell1_norm(sym)
    if s.exact is not None:
        return mpmath.mpf(s.exact.numerator) / s.exact.denominator, True
    if s.infinite:
        return mpmath.inf, True
    return mpmath.mpf(s.upper), False


def _mp_abs_conv_power(sym: Symbol, k: int, N: int) -> list:
    """|beta^{*k}| prefix computed independently with exact/high-precision
    arithmetic (direct nested convolution, no shared code with symbols)."""
    base = prefix(sym, N)
    exact = _all_exact(base)
    vals = [_lift(v, exact) for v in base]
    out = list(vals)
    for _ in range(k - 1):
        new = [Fraction(0) if exact else mpmath.mpf(0)] * min(N, len(out) + len(vals) - 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j, b in enumerate(vals):
                if i + j < len(new):
                    new[i + j] += a * b
        out = new
    return [abs(v) for v in out]


_REPLAYERS = {}


def replayer(rule: str):
    def wrap(fn):
        _REPLAYERS[rule] = fn
        return fn
    return wrap


def replay_verdict(verdict) -> bool:
    """Re-derive every inequality a decisive verdict rests on, with exact or
    50-digit arithmetic.  Raises NonReplayable for evidence-only verdicts."""
    cert = verdict.certificate
    if cert is None or verdict.status.value == "inconclusive":
        raise NonReplayable("verdict carries no decisive certificate")
    fn = _REPLAYERS.get(cert.rule)
    if fn is None:
        raise NonReplayable(f"no replayer registered for rule {cert.rule!r}")
    with mpmath.workdps(REPLAY_DPS):
        return bool(fn(verdict, cert.params))


_MARGIN = mpmath.mpf("1e-30")


@replayer("zero_operator")
def _replay_zero(v, params):
    sym = v.beta if v.beta is not None else v.theta
    return sym is None or sym.is_zero


@replayer("hat_l1_contraction")
def _replay_hat_l1(v, params):
    val, exact = _mp_ell1(v.theta)
    return val <= 1 if exact else val <= 1 + _MARGIN


@replayer("hat_l1_exceeds")
def _replay_hat_l1_gt(v, params):
    m = int(params["prefix_len"])
    partial = sum(abs(_lift(coeff(v.theta, i), _all_exact(prefix(v.theta, m))))
                  for i in range(m))
    return partial > 1


@replayer("hat_delta_power_norms")
def _replay_hat_delta(v, params):
    if v.theta.bounded_support() not in (0, 1):
        return False
    c = abs(_lift(coeff(v.theta, 0), is_rational(coeff(v.theta, 0))))
    return c <= 1


@replayer("hat_conv_power_lower_growth")
def _replay_hat_growth(v, params):
    route = params["route"]
    if route == "nonneg_sum":
        th = prefix(v.theta, v.theta.bounded_support() or 0)
        if any(isinstance(t, complex) or t < 0 for t in th):
            return False
        total = sum(_lift(t, _all_exact(th)) for t in th)
        return total > 1
    if route == "theta0":
        c = abs(_lift(coeff(v.theta, 0), is_rational(coeff(v.theta, 0))))
        return c > 1
    return False


@replayer("dual_l1_contraction")
def _replay_dual_l1(v, params):
    val, exact = _mp_ell1(v.beta)
    if not (val <= 1 if exact else val <= 1 + _MARGIN):
        return False
    # spot-check the implied coefficient bound on exact convolution powers
    for k in (2, 3, 5):
        for a in _mp_abs_conv_power(v.beta, k, 40):
            if _num(a) > 1 + _MARGIN:
                return False
    return True


@replayer("young_envelope")
def _replay_young(v, params):
    D = mpmath.mpf(str(params["D"]))
    val, _ = _mp_ell1(v.beta)
    if not (val <= D + _MARGIN and D >= 1):
        return False
    for k in (2, 4):
        for a in _mp_abs_conv_power(v.beta, k, 40):
            if _num(a) > D ** k + _MARGIN:
                return False
    return True


@replayer("young_envelope_shifted")
def _replay_young_shifted(v, params):
    D = mpmath.mpf(str(params["D"]))
    q = int(params["q"])
    for k in (1, 2, 4):
        absck = _mp_abs_conv_power(v.beta, k, 64)
        for m, a in enumerate(absck):
            target = D ** k * mpmath.e ** (-mpmath.mpf(v.space.alpha.value(m + 1)) / q)
            if _num(a) > target * (1 + _MARGIN):
                return False
    return True


@replayer("finite_support_topologizable")
def _replay_fin_top(v, params):
    s = int(params["support"])
    sup = v.beta.bounded_support()
    if sup is None or sup > s:
        return False
    for k in (2, 3):
        absck = _mp_abs_conv_power(v.beta, k, k * s + 4)
        if any(a != 0 for a in absck[k * (s - 1) + 1:]):
            return False
    return True


@replayer("dual_delta_contraction")
def _replay_dual_delta(v, params):
    if (v.beta.bounded_support() or 0) > 1:
        return False
    c = abs(_lift(coeff(v.beta, 0), is_rational(coeff(v.beta, 0))))
    if v.space.is_finite_type:
        q = int(params["q"])
        target = mpmath.e ** (-mpmath.mpf(v.space.alpha.value(1)) / q)
        return _num(c) <= target * (1 + _MARGIN)
    return c <= 1


@replayer("dual_fixed_index_growth")
def _replay_dual_growth(v, params):
    n = int(params["witness_n"])
    if params["form"] == "beta0_power":
        b0 = abs(_lift(coeff(v.beta, 0), is_rational(coeff(v.beta, 0))))
        if not b0 > 1:
            return False
        probe = _mp_abs_conv_power(v.beta, 3, n + 1)
        return _num(probe[n - 1]) >= b0 ** 3 * (1 - _MARGIN)
    # k-linear growth at the first positive support index j = n - 1
    j = n - 1
    bj = abs(_lift(coeff(v.beta, j), is_rational(coeff(v.beta, j))))
    b0 = abs(_lift(coeff(v.beta, 0), is_rational(coeff(v.beta, 0))))
    if bj == 0 or _num(abs(b0 - 1)) > _MARGIN:
        return False
    for k in (2, 5):
        probe = _mp_abs_conv_power(v.beta, k, j + 1)
        expected = k * bj
        if abs(_num(probe[j]) - expected) > _MARGIN * max(1, expected):
            return False
    return True


@replayer("dual_fixed_index_floor")
def _replay_dual_floor(v, params):
    b0 = abs(_lift(coeff(v.beta, 0), is_rational(coeff(v.beta, 0))))
    a1 = v.space.alpha.value(1)
    return b0 >= 1 and a1 > 0


@replayer("dual_disc_modulus_bound")
def _replay_disc_modulus(v, params):
    # max_{|z| = e^{-q}} |B(z)| <= 1 certified through the triangle bound
    q = int(params["q"])
    sup = v.beta.bounded_support()
    if sup is None:
        return False
    total = mpmath.mpf(0)
    for i in range(sup):
        total += abs(_lift(coeff(v.beta, i), False)) * mpmath.e ** (-q * i)
    return total <= 1 + _MARGIN


@replayer("dual_circle_modulus_bound")
def _replay_circle_modulus(v, params):
    q = int(params["q"])
    sup = v.beta.bounded_support()
    if sup is None:
        return False
    R = mpmath.e ** (mpmath.mpf(1) / q)
    M = 4096
    best = mpmath.mpf(0)
    lip = sum(i * abs(_lift(coeff(v.beta, i), False)) * R ** i for i in range(sup))
    for j in range(M):
        z = R * mpmath.e ** (1j * 2 * mpmath.pi * j / M)
        val = abs(sum(_lift(coeff(v.beta, i), False) * z ** i for i in range(sup)))
        best = max(best, val)
    best += lip * mpmath.pi / M
    return best <= mpmath.e ** (-mpmath.mpf(1) / q) * (1 + mpmath.mpf("1e-12"))


@replayer("dual_circle_modulus_exceeds")
def _replay_circle_exceeds(v, params):
    t = mpmath.mpf(str(params["angle"]))
    sup = v.beta.bounded_support()
    if sup is None:
        return False
    z = mpmath.e ** (1j * t)
    val = abs(sum(_lift(coeff(v.beta, i), False) * z ** i for i in range(sup)))
    return val > 1 + mpmath.mpf("1e-12")


@replayer("dual_l1_exceeds_on_circle")
def _replay_dual_l1_gt(v, params):
    val, exact = _mp_ell1(v.beta)
    return val > 1 if exact else val > 1 + _MARGIN


@replayer("dual_l1_decay_bound")
def _replay_dual_l1_decay(v, params):
    q = int(params["q"])
    val, _ = _mp_ell1(v.beta)
    if not val < 1:
        return False
    s = params.get("support")
    if s is None:
        return False
    # ell1^k * e^{alpha_{k(s-1)+1}/q} <= 1 for the inspected k
    for k in (1, 2, 4, 8):
        n_edge = k * (int(s) - 1) + 1
        lhs = val ** k * mpmath.e ** (mpmath.mpf(v.space.alpha.value(n_edge)) / q)
        if lhs > 1 + _MARGIN:
            return False
        absck = _mp_abs_conv_power(v.beta, k, min(64, n_edge + 2))
        for m, a in enumerate(absck):
            target = mpmath.e ** (-mpmath.mpf(v.space.alpha.value(m + 1)) / q)
            if _num(a) > target * (1 + mpmath.mpf("1e-12")):
                return False
    return True


@replayer("dual_geometric_decay_bound")
def _replay_dual_geo_decay(v, params):
    q = int(params["q"])
    c = _num(abs(_lift(v.beta.c, is_rational(v.beta.c))))
    r = _num(abs(_lift(v.beta.r, is_rational(v.beta.r))))
    Rq = mpmath.e ** (mpmath.mpf(1) / q)
    if not r * Rq < 1:
        return False
    s_max = c / (1 - r * Rq)
    return s_max <= mpmath.e ** (-mpmath.mpf(1) / q) * (1 + mpmath.mpf("1e-12"))


@replayer("dual_geometric_decay_bound_topology")
def _replay_dual_geo_topology(v, params):
    q = int(params["q"])
    D = mpmath.mpf(str(params["D"]))
    c = _num(abs(_lift(v.beta.c, is_rational(v.beta.c))))
    r = _num(abs(_lift(v.beta.r, is_rational(v.beta.r))))
    Rq = mpmath.e ** (mpmath.mpf(1) / q)
    if not r * Rq < 1:
        return False
    if c / (1 - r * Rq) * Rq > D * (1 + mpmath.mpf("1e-12")):
        return False
    for k in (1, 2, 4):
        absck = _mp_abs_conv_power(v.beta, k, 48)
        for m, a in enumerate(absck):
            target = D ** k * mpmath.e ** (-mpmath.mpf(v.space.alpha.value(m + 1)) / q)
            if _num(a) > target * (1 + mpmath.mpf("1e-12")):
                return False
    return True


@replayer("dual_negbinomial_envelope")
def _replay_negbinom(v, params):
    x = mpmath.mpf(str(params["x"]))
    D = mpmath.mpf(str(params["D"]))
    q = int(params["q"])
    c = abs(_lift(v.beta.c, False))
    r = abs(_lift(v.beta.r, False))
    if not (0 < x < 1 and c / (1 - x) <= D + _MARGIN and r / x <= mpmath.e ** q * (1 + _MARGIN)):
        return False
    # binomial generating bound C(m+k-1, m) <= (1-x)^{-k} x^{-m}, exact spot check
    from math import comb

    xf = Fraction(str(params["x"]))
    for k in (1, 2, 5):
        for m in (0, 1, 7, 23):
            if Fraction(comb(m + k - 1, m)) > (1 - xf) ** (-k) * xf ** (-m):
                return False
    return True


@replayer("dual_negbinomial_contraction")
def _replay_negbinom_pb(v, params):
    if not _replay_negbinom(v, params):
        return False
    return mpmath.mpf(str(params["D"])) <= 1 + _MARGIN


@replayer("hat_power_norm_envelope")
def _replay_hat_envelope(v, params):
    # verify the power-norm bound ||T^k e_n||_p <= C_p^k ||e_n||_q on a small
    # exact-dense grid
    from .operators import OperatorKind
    from .symbols import zero_symbol

    space = v.space
    N = 24
    M = dense_hat(v.theta, N)
    q_of_p = {int(p): int(q) for p, q in params["q_of_p"].items()}
    C_p = {int(p): mpmath.mpf(str(c)) for p, c in params["C_p"].items()}
    for p in list(C_p)[:2]:
        q = q_of_p[p]
        Mk = M
        for k in (1, 2, 3):
            if k > 1:
                Mk = dense_matmul(Mk, M)
            for n in (1, 2, 8):
                col = column(Mk, n)
                norm = sum(abs(_lift(col[i], Mk.exact)) * _mp_weight(space, i + 1, p)
                           for i in range(N))
                target = (C_p[p] ** k) * _mp_weight(space, n, q)
                if norm > target * (1 + mpmath.mpf("1e-12")):
                    return False
    return True


@replayer("hat_per_power_symbol_norms")
def _replay_hat_per_power(v, params):
    # the claim is the single-application column bound at the power symbol:
    # ||T^k e_n||_p <= ||theta^{*k}||_{q} ||e_n||_{q} with q = q_mult * p
    q_mult = int(params["q_mult"])
    space = v.space
    N = 24
    M = dense_hat(v.theta, N)
    Mk = M
    for k in (1, 2, 3):
        if k > 1:
            Mk = dense_matmul(Mk, M)
        for p in (1, 2):
            q = q_mult * p
            sym_norm = sum(abs(_lift(column(Mk, 1)[i], Mk.exact))
                           * _mp_weight(space, i + 1, q) for i in range(N))
            for n in (1, 3, 8):
                col = column(Mk, n)
                norm = sum(abs(_lift(col[i], Mk.exact)) * _mp_weight(space, i + 1, p)
                           for i in range(N))
                if norm > sym_norm * _mp_weight(space, n, q) * (1 + mpmath.mpf("1e-12")):
                    return False
    return True


@replayer("toeplitz_power_bound_sum")
def _replay_toeplitz_pb(v, params):
    space = v.space
    if space.is_finite_type:
        s_theta, _ = _mp_ell1(v.theta)
        if v.beta is None or v.beta.is_zero:
            b = mpmath.mpf(0)
        else:
            b = mpmath.mpf(str(params["B_upper"]))
        total = s_theta + b
    else:
        if v.theta is not None and not v.theta.is_zero:
            return False
        a_val, _ = _mp_ell1(v.beta)
        total = a_val
    if not total <= 1 + _MARGIN:
        return False
    # spot-check power boundedness on a small dense grid
    M = dense_toeplitz(v.theta, v.beta, 20)
    for k in (1, 3):
        Mk = dense_power(M, k)
        for n in (1, 5):
            for p in (1, 2):
                q = params.get("q_of_p", {}).get(str(p), 2 * p if space.is_finite_type else p)
                col = column(Mk, n)
                norm = sum(abs(_lift(col[i], Mk.exact)) * _mp_weight(space, i + 1, p)
                           for i in range(12))
                if norm > _mp_weight(space, n, int(q)) * (1 + mpmath.mpf("1e-9")):
                    return False
    return True


@replayer("strongly_tame_closed_bounds")
def _replay_tame(v, params):
    bounds = {int(p): mpmath.mpf(str(b)) for p, b in params["bounds"].items()}
    N = 24
    M = dense_from_operator_like(v)
    for p, bound in list(bounds.items())[:2]:
        for n in (1, 3, 9):
            col = column(M, n)
            norm = sum(abs(_lift(col[i], M.exact)) * _mp_weight(v.space, i + 1, p)
                       for i in range(N))
            if norm > bound * _mp_weight(v.space, n, p) * (1 + mpmath.mpf("1e-9")):
                return False
    return True


def dense_from_operator_like(v, N: int = 24) -> DenseTrunc:
    from .symbols import zero_symbol

    theta = v.theta if v.theta is not None else zero_symbol()
    beta = v.beta if v.beta is not None else zero_symbol()
    return dense_toeplitz(theta, beta, N)


@replayer("implied_by_power_bounded")
@replayer("implied_by_m_topologizable")
def _replay_implied(v, params):
    inner = params["inner"]
    fn = _REPLAYERS.get(inner["rule"])
    if fn is None:
        raise NonReplayable(f"no replayer for inner rule {inner['rule']!r}")
    return fn(v, inner["params"])


@replayer("dual_l1_tame_bound")
def _replay_dual_tame(v, params):
    if v.space.is_finite_type:
        b = mpmath.mpf(str(params["B_upper"]))
        total = mpmath.mpf(0)
        sup = v.beta.bounded_support()
        terms = sup if sup is not None else 2048
        for i in range(terms):
            total += abs(_lift(v.beta.coeff_abs_upper(i), False)) * mpmath.e ** (i + 1)
            if i > 64 and abs(_lift(v.beta.coeff_abs_upper(i), False)) == 0:
                break
        return total <= b * (1 + mpmath.mpf("1e-9"))
    a_val, exact = _mp_ell1(v.beta)
    bound = mpmath.mpf(str(params["A_upper"]))
    return a_val <= bound * (1 + mpmath.mpf("1e-9"))
