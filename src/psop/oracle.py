"""Independent brute-force ground truth on truncations.

Dense matrices hold exact rationals whenever the symbols are exact; for
irrational inputs the fallback is 50+ digit arithmetic (mpmath) with an
explicit comparison margin.  Nothing here is on any hot path: the module
backs tests and the replay of classification verdicts.

Replay is independent of the code it checks: from symbols and operators
it imports only readers and types (Symbol, coeff, is_rational, prefix,
readable_length, zero_symbol), never their convolution kernels or absolute
sums, so its exact convolution powers clear denominators with their own
code and its absolute sums come from each symbol kind's closed form.

Each claim shape has one checker: _powers_within for coefficient envelopes
of convolution powers, _columns_within for dense column bounds, _abs_at
for one lifted coefficient, and _circle_form for the two circle-modulus
rules.  Convolution powers come from one routine, _conv_powers, which reads
the symbol once and iterates k upward with one product per step; an exact
power stays integer numerators over den**k, and _powers_within compares
each numerator against scale * bound without building a Fraction.
Comparisons at 50 digits pad a bound by one of three named margins; the
circle-modulus rules take none: they are decided exactly in integers, by
Sturm's theorem or the sign at one rational point.

Truncation-then-power equals power-then-truncation exactly for triangular
matrices; for the mixed Toeplitz kind the leading-block stability is
asserted by comparing the N and 2N truncations, never assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .spaces import GeometricEnvelope
from .symbols import Symbol, coeff, is_rational, prefix, readable_length, zero_symbol

MAX_DENSE_N = 512
REPLAY_DPS = 50


class NonReplayable(ValueError):
    """The verdict carries no machine-checkable justification."""


@dataclass(frozen=True)
class DenseTrunc:
    rows: tuple
    exact: bool

    @property
    def n(self) -> int:
        return len(self.rows)


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


def dense_toeplitz(theta: Symbol, beta: Symbol, N: int) -> DenseTrunc:
    """Toeplitz truncation: theta_{i-j} below the diagonal, beta_{j-i} above
    it, theta_0 + beta_0 on it."""
    if not 1 <= N <= MAX_DENSE_N:
        raise ValueError(f"dense truncations capped at N = {MAX_DENSE_N}")
    th = prefix(theta, N)
    be = prefix(beta, N)
    exact = _all_exact(th) and _all_exact(be)
    # one lift per diagonal
    lower = [_lift(v, exact) for v in th]
    upper = [_lift(v, exact) for v in be]
    lower[0] = upper[0] = lower[0] + upper[0]
    rows = tuple(tuple(lower[i - j] if i >= j else upper[j - i] for j in range(N))
                 for i in range(N))
    return DenseTrunc(rows, exact)


def dense_hat(theta: Symbol, N: int) -> DenseTrunc:
    """Lower triangular truncation with constant diagonals theta_d."""
    return dense_toeplitz(theta, zero_symbol(), N)


def dense_check(beta: Symbol, N: int) -> DenseTrunc:
    """Upper triangular truncation with constant diagonals beta_d."""
    return dense_toeplitz(zero_symbol(), beta, N)


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
    return DenseTrunc(rows, exact)


def dense_power(M: DenseTrunc, k: int) -> DenseTrunc:
    if k < 1:
        raise ValueError("powers start at k = 1")
    out = M
    for _ in range(k - 1):
        out = dense_matmul(out, M)
    return out


def column(M: DenseTrunc, j: int) -> list:
    """1-based column extraction (the image of e_j)."""
    return [M.rows[i][j - 1] for i in range(M.n)]


# ---------------------------------------------------------------------------
# Verdict replay
# ---------------------------------------------------------------------------


# Comparison margins, relative to the bound they pad.  Each is a decimal
# string that mpmath parses inside the 50-digit replay context.
_TIGHT = "1e-30"    # the rounding of 50-digit arithmetic alone
_FLOAT = "1e-12"    # a constant the classifier rounded to a float
_LOOSE = "1e-9"     # a constant resting on float sums and tail majorants


def _within(x, bound, margin: str) -> bool:
    """x <= bound * (1 + margin)."""
    return _num(x) <= bound * (1 + mpmath.mpf(margin))


def _abs_at(sym: Symbol, i: int):
    """|sym_i| from one read: a Fraction when the coefficient is rational,
    else a 50-digit number."""
    v = coeff(sym, i)
    return abs(_lift(v, is_rational(v)))


def _abs_lifted(x):
    """|x| as a 50-digit number."""
    return _num(abs(_lift(x, is_rational(x))))


def _mp_weight(space, n: int, k: int):
    a = mpmath.mpf(space.alpha.value(n))
    return mpmath.e ** (-a / k) if space.is_finite_type else mpmath.e ** (k * a)


def _weighted_column_norm(M: DenseTrunc, n: int, space, p: int, rows: int):
    """sum_{i < rows} |M[i][n - 1]| a_{i+1,p}: the grade-p norm of column n
    (1-based) read on its first rows entries, which are already lifted."""
    return sum(abs(M.rows[i][n - 1]) * _mp_weight(space, i + 1, p) for i in range(rows))


def _columns_within(M: DenseTrunc, space, ks, ps, ns, rows: int, bound,
                    margin: str) -> bool:
    """The dense column claim ||M^k e_n||_p <= C ||e_n||_q, the norm read on
    the first rows entries of the column, for every k in ks (ascending), p in
    ps and n in ns, where (C, q) = bound(M^k, k, p)."""
    Mk, k_done = M, 1
    for k in ks:
        for _ in range(k - k_done):
            Mk = dense_matmul(Mk, M)
        k_done = k
        for p in ps:
            C, q = bound(Mk, k, p)
            if not all(_within(_weighted_column_norm(Mk, n, space, p, rows),
                               C * _mp_weight(space, n, q), margin) for n in ns):
                return False
    return True


def _dense_size(v, N: int, ns) -> tuple[int, list]:
    """(N, cols): the size of the dense truncation a column replay of v's
    operator reads, N or less where a sampled window ends earlier, and the
    columns ns it checks, a column past the truncation replaced by its last
    one.  NonReplayable when no coefficient can be read."""
    for sym in (v.theta, v.beta):
        if sym is not None:
            N = readable_length(sym, N)
    if N == 0:
        raise NonReplayable("no coefficient of the operator can be read")
    return N, sorted({min(n, N) for n in ns})


def _powers_within(sym: Symbol, ks, N: int, bound, margin: str) -> bool:
    """The coefficient envelope |sym^{*k}_m| <= bound(k, m) for every k in ks
    and every m below N that the symbol's window reaches.  The powers come
    upward from one read of the symbol, and each entry is compared as its
    numerator against scale * bound, with no division."""
    pad = 1 + mpmath.mpf(margin)
    for k, nums, scale in _conv_powers(sym, N):
        if k in ks and not all(a == 0 or abs(a) <= scale * (bound(k, m) * pad)
                               for m, a in enumerate(nums)):
            return False
        if k >= max(ks):
            return True


def _decay_target(space, q: int):
    """m -> e^{-alpha_{m+1}/q}, the finite-type target of power coefficient
    m, each value computed once per target."""
    @functools.lru_cache(maxsize=None)
    def target(m):
        return mpmath.e ** (-mpmath.mpf(space.alpha.value(m + 1)) / q)
    return target


def _mp_ell1(sym: Symbol):
    """(sum_i |sym_i|, exact) from the coefficients and each kind's closed
    form: a Fraction for rational finite and geometric symbols, a 50-digit
    sum otherwise, with the envelope's geometric tail past a sampled window.
    NonReplayable when no certificate settles the sum."""
    if sym.kind == "geometric":
        if sym.c == 0:
            return mpmath.mpf(0), True
        if _abs_lifted(sym.r) >= 1:
            return mpmath.inf, True
        exact = is_rational(sym.c) and is_rational(sym.r)
        return _num(abs(_lift(sym.c, exact)) / (1 - abs(_lift(sym.r, exact)))), exact
    sup = sym.bounded_support()
    W = readable_length(sym, math.inf if sup is None else sup)
    vals = prefix(sym, W)
    exact = sym.kind == "finite" and _all_exact(vals)
    partial = sum((abs(_lift(v, exact)) for v in vals),
                  Fraction(0) if exact else mpmath.mpf(0))
    if W == sup:
        return _num(partial), exact
    # an envelope scale * ratio**i bounds |sym_i| for i >= W, up to the
    # support bound when there is one
    env = sym.envelope
    if not isinstance(env, GeometricEnvelope):
        raise NonReplayable("no geometric envelope bounds the unread coefficients")
    scale, ratio = mpmath.mpf(env.scale), mpmath.mpf(env.ratio)
    if sup is not None:
        tail = scale * (sup - W) if ratio == 1 else \
            scale * (ratio ** W - ratio ** sup) / (1 - ratio)
    elif ratio < 1:
        tail = scale * ratio ** W / (1 - ratio)
    else:
        raise NonReplayable("an envelope of ratio >= 1 does not settle the sum")
    return partial + tail, False


def _cleared_ints(vals: Sequence) -> tuple[list, int]:
    """Integer numerators of exact values over their least common
    denominator."""
    fr = [Fraction(v) for v in vals]
    den = math.lcm(*(f.denominator for f in fr))
    return [int(f.numerator) * (den // int(f.denominator)) for f in fr], den


def _conv_powers(sym: Symbol, N: int):
    """(k, nums, scale) for k = 1, 2, ...: sym^{*k}_m = nums[m] / scale for
    every m below N that the symbol's window reaches, and 0 past nums.  An
    exact symbol is cleared of denominators once (nums are ints, scale is
    den**k); otherwise nums are 50-digit numbers and scale is 1.  Each power
    is one direct product with the symbol (no code shared with symbols), and
    entry m depends only on entries 0..m of the symbol, so the window bounds
    what is read."""
    N = readable_length(sym, N)
    base = prefix(sym, N)
    exact = _all_exact(base)
    vals, den = _cleared_ints(base) if exact else ([_lift(v, False) for v in base], 1)
    while vals and vals[-1] == 0:
        vals.pop()
    out, scale, k = vals, den, 1
    while True:
        yield k, out, scale
        new = [0] * min(N, len(out) + len(vals) - 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j, b in enumerate(vals[:len(new) - i]):
                new[i + j] += a * b
        out, scale, k = new, scale * den, k + 1


def _abs_entry(nums: list, scale: int, m: int):
    """|entry m| of a power from _conv_powers: a Fraction when exact, else a
    50-digit number."""
    a = abs(nums[m]) if m < len(nums) else 0
    return Fraction(a, scale) if isinstance(a, int) else a


# ---------------------------------------------------------------------------
# Exact circle-modulus decisions
# ---------------------------------------------------------------------------


_EXP_TERMS = 24      # Taylor terms of e^{1/q}: the remainder is below 2^-80
_GRID_BITS = 64      # a replayed bound and coefficients sit on the grid 2^-64 Z


def _exp_upper(q: int) -> Fraction:
    """An upper bound of e^{1/q} (q >= 1): the Taylor sum and its Lagrange
    remainder e^x x^{n+1} / (n+1)! <= 3 x^{n+1} / (n+1)! at x = 1/q."""
    x = Fraction(1, q)
    term = total = Fraction(1)
    for k in range(1, _EXP_TERMS + 1):
        term = term * x / k
        total += term
    return total + 3 * term * x / (_EXP_TERMS + 1)


def _grid_floor(x: Fraction) -> Fraction:
    """The largest multiple of 2^-_GRID_BITS at most x."""
    return Fraction(math.floor(x * (1 << _GRID_BITS)), 1 << _GRID_BITS)


def _gaussian(v) -> tuple[Fraction, Fraction]:
    """v as an exact (real, imaginary) pair: ints, Fractions, floats and
    complex floats are all Gaussian rationals."""
    if is_rational(v):
        return Fraction(v), Fraction(0)
    z = complex(v)
    return Fraction(z.real), Fraction(z.imag)


def _circle_form(pairs: Sequence, T: Fraction) -> list:
    """Integer coefficients, lowest degree first, of a positive multiple of
    F(s) = T^2 (1 + s^2)^d - |P(s)|^2, where pairs holds the real and
    imaginary parts of gamma_0, ..., gamma_d and
    P(s) = sum_k gamma_k (1 + is)^k (1 - is)^{d-k}.

    At s = tan(t/2), |gamma(e^{it})|^2 = |P(s)|^2 / (1 + s^2)^d, so F(s) > 0
    exactly where |gamma| < T on the unit circle.  The s^{2d} coefficient is
    T^2 - |gamma(-1)|^2, the point t = pi."""
    d = max(len(pairs) - 1, 0)
    den = math.lcm(T.denominator, *(f.denominator for pair in pairs for f in pair))
    g = [(int(a * den), int(b * den)) for a, b in pairs]
    re, im = [0] * (d + 1), [0] * (d + 1)
    for n in range(d + 1):
        # (1 + is)^k (1 - is)^{d-k} has s^n coefficient i^n K_k(n)
        hr = hi = 0
        for k, (gr, gi) in enumerate(g):
            kn = sum((-1) ** (n - j) * math.comb(k, j) * math.comb(d - k, n - j)
                     for j in range(n + 1))
            hr += gr * kn
            hi += gi * kn
        re[n], im[n] = ((hr, hi), (-hi, hr), (-hr, -hi), (hi, -hr))[n % 4]
    t2 = int(T * den) ** 2
    form = [0] * (2 * d + 1)
    for j in range(d + 1):
        form[2 * j] = t2 * math.comb(d, j)
    for i in range(d + 1):
        for j in range(d + 1):
            form[i + j] -= re[i] * re[j] + im[i] * im[j]
    return form


def _primitive(p: list) -> list:
    """p without trailing zeros, divided by the gcd of its coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _negated_remainder(a: list, b: list) -> list:
    """-(c * a mod b) for a positive integer c that keeps the division in the
    integers."""
    lb = b[-1]
    while len(a) >= len(b):
        la, shift = a[-1], len(a) - len(b)
        g = math.gcd(la, lb)
        ca, cb = abs(lb) // g, la // g if lb > 0 else -la // g
        a = [ca * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= cb * c
        while a and a[-1] == 0:
            a.pop()
    return [-c for c in a]


def _real_root_count(f: list) -> int:
    """How many distinct real roots the integer polynomial f has, by Sturm's
    theorem: sign changes of its chain f, f', -rem, ... at -inf less those at
    +inf.  Each link is scaled by a positive integer, which keeps every sign."""
    f = _primitive(f)
    if len(f) <= 1:
        return 0
    chain = [f, _primitive([j * c for j, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        r = _primitive(_negated_remainder(chain[-2], chain[-1]))
        if not r:
            break
        chain.append(r)

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))
    at_plus = [p[-1] > 0 for p in chain]
    at_minus = [(p[-1] > 0) == (len(p) % 2 == 1) for p in chain]
    return changes(at_minus) - changes(at_plus)


def _circle_modulus_below(pairs: Sequence, T: Fraction) -> bool:
    """Whether |gamma| < T everywhere on the unit circle, decided exactly: F
    is positive at s = 0 and at t = pi (its leading coefficient), and has no
    real root.  A touch of the bound is False."""
    form = _circle_form(pairs, T)
    return form[0] > 0 and form[-1] > 0 and _real_root_count(form) == 0


def _circle_bound_holds(coefs: Sequence, q: int) -> bool:
    """max |beta| <= e^{-1/q} on |z| = e^{1/q}, proved exactly.

    With R >= e^{1/q}, gamma_k = beta_k R^k floored to the grid in both parts
    and T = 1/R - 2 (d + 1) 2^-_GRID_BITS floored to it, |gamma| < T on the
    unit circle gives |beta(Rw)| < T + 2 (d + 1) 2^-_GRID_BITS <= 1/R there.
    By maximum modulus, max |beta| on |z| = e^{1/q} is no larger than on
    |z| = R, and 1/R <= e^{-1/q}."""
    R = _exp_upper(q)
    gamma = [(_grid_floor(a * R ** k), _grid_floor(b * R ** k))
             for k, (a, b) in enumerate(map(_gaussian, coefs))]
    T = _grid_floor(1 / R - Fraction(2 * len(gamma), 1 << _GRID_BITS))
    return T > 0 and _circle_modulus_below(gamma, T)


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


@replayer("zero_operator")
def _replay_zero(v, params):
    # zero: a support bound below which every coefficient reads, and reads 0
    sym = v.beta if v.beta is not None else v.theta
    if sym is None:
        return True
    sup = sym.bounded_support()
    return sup is not None and readable_length(sym, sup) == sup and not any(prefix(sym, sup))


@replayer("hat_l1_contraction")
def _replay_hat_l1(v, params):
    val, exact = _mp_ell1(v.theta)
    return val <= 1 if exact else _within(val, 1, _TIGHT)


@replayer("hat_l1_exceeds")
def _replay_hat_l1_gt(v, params):
    head = prefix(v.theta, int(params["prefix_len"]))
    exact = _all_exact(head)
    return sum(abs(_lift(t, exact)) for t in head) > 1


@replayer("hat_delta_power_norms")
def _replay_hat_delta(v, params):
    if v.theta.bounded_support() not in (0, 1):
        return False
    return _abs_at(v.theta, 0) <= 1


@replayer("hat_conv_power_lower_growth")
def _replay_hat_growth(v, params):
    route = params["route"]
    if route == "nonneg_sum":
        th = prefix(v.theta, v.theta.bounded_support() or 0)
        if any(isinstance(t, complex) or t < 0 for t in th):
            return False
        exact = _all_exact(th)
        return sum(_lift(t, exact) for t in th) > 1
    if route == "theta0":
        return _abs_at(v.theta, 0) > 1
    return False


@replayer("dual_l1_contraction")
def _replay_dual_l1(v, params):
    val, exact = _mp_ell1(v.beta)
    # then spot-check the implied coefficient bound on exact convolution powers
    return (val <= 1 if exact else _within(val, 1, _TIGHT)) and \
        _powers_within(v.beta, (2, 3, 5), 40, lambda k, m: 1, _TIGHT)


@replayer("young_envelope")
def _replay_young(v, params):
    D = mpmath.mpf(str(params["D"]))
    val, _ = _mp_ell1(v.beta)
    return D >= 1 and _within(val, D, _TIGHT) and \
        _powers_within(v.beta, (2, 4), 40, lambda k, m: D ** k, _TIGHT)


@replayer("young_envelope_shifted")
def _replay_young_shifted(v, params):
    D = mpmath.mpf(str(params["D"]))
    target = _decay_target(v.space, int(params["q"]))
    return _powers_within(v.beta, (1, 2, 4), 64, lambda k, m: D ** k * target(m), _TIGHT)


@replayer("finite_support_topologizable")
def _replay_fin_top(v, params):
    s = int(params["support"])
    sup = v.beta.bounded_support()
    if sup is None or sup > s:
        return False
    for k, nums, _ in _conv_powers(v.beta, 3 * s + 4):
        if k >= 2 and any(a != 0 for a in nums[k * (s - 1) + 1:]):
            return False
        if k == 3:
            return True


@replayer("dual_delta_contraction")
def _replay_dual_delta(v, params):
    if (v.beta.bounded_support() or 0) > 1:
        return False
    c = _abs_at(v.beta, 0)
    if v.space.is_finite_type:
        return _within(c, _decay_target(v.space, int(params["q"]))(0), _TIGHT)
    return c <= 1


@replayer("dual_fixed_index_growth")
def _replay_dual_growth(v, params):
    n = int(params["witness_n"])
    b0 = _abs_at(v.beta, 0)
    tight = mpmath.mpf(_TIGHT)
    if params["form"] == "beta0_power":
        if not b0 > 1:
            return False
        _, nums, scale = next(p for p in _conv_powers(v.beta, n + 1) if p[0] == 3)
        return _num(_abs_entry(nums, scale, n - 1)) >= b0 ** 3 * (1 - tight)
    # k-linear growth at the first positive support index j = n - 1
    j = n - 1
    bj = _abs_at(v.beta, j)
    if bj == 0 or _num(abs(b0 - 1)) > tight:
        return False
    for k, nums, scale in _conv_powers(v.beta, j + 1):
        expected = k * bj
        if k in (2, 5) and abs(_num(_abs_entry(nums, scale, j)) - expected) > \
                tight * max(1, expected):
            return False
        if k == 5:
            return True


@replayer("dual_fixed_index_floor")
def _replay_dual_floor(v, params):
    return _abs_at(v.beta, 0) >= 1 and v.space.alpha.value(1) > 0


@replayer("dual_disc_modulus_bound")
def _replay_disc_modulus(v, params):
    # max_{|z| = e^{-q}} |B(z)| <= 1 certified through the triangle bound
    q = int(params["q"])
    sup = v.beta.bounded_support()
    if sup is None:
        return False
    total = sum(abs(_lift(b, False)) * mpmath.e ** (-q * i)
                for i, b in enumerate(prefix(v.beta, sup)))
    return _within(total, 1, _TIGHT)


@replayer("dual_circle_modulus_bound")
def _replay_circle_modulus(v, params):
    q = int(params["q"])
    sup = v.beta.bounded_support()
    if sup is None or q < 1:
        return False
    return _circle_bound_holds(prefix(v.beta, sup), q)


@replayer("dual_circle_modulus_exceeds")
def _replay_circle_exceeds(v, params):
    # |beta(w)| > 1 at w = (1 + is) / (1 - is), which lies on the unit circle
    # for every real s; s is the rational tan(t/2) of the recorded angle t
    sup = v.beta.bounded_support()
    if sup is None:
        return False
    s = Fraction(math.tan(float(params["angle"]) / 2))
    form = _circle_form([_gaussian(b) for b in prefix(v.beta, sup)], Fraction(1))
    return sum(c * s ** j for j, c in enumerate(form)) < 0


@replayer("dual_l1_exceeds_on_circle")
def _replay_dual_l1_gt(v, params):
    val, exact = _mp_ell1(v.beta)
    return val > 1 if exact else not _within(val, 1, _TIGHT)


@replayer("dual_l1_decay_bound")
def _replay_dual_l1_decay(v, params):
    q = int(params["q"])
    val, _ = _mp_ell1(v.beta)
    s = params.get("support")
    if not val < 1 or s is None:
        return False
    # ell1^k * e^{alpha_{k(s-1)+1}/q} <= 1 for the inspected k
    ks = (1, 2, 4, 8)
    edge = [mpmath.mpf(v.space.alpha.value(k * (int(s) - 1) + 1)) for k in ks]
    if not all(_within(val ** k * mpmath.e ** (a / q), 1, _TIGHT) for k, a in zip(ks, edge)):
        return False
    target = _decay_target(v.space, q)
    return _powers_within(v.beta, ks, 64, lambda k, m: target(m), _FLOAT)


@replayer("dual_geometric_decay_bound")
def _replay_dual_geo_decay(v, params):
    q = int(params["q"])
    c, r = _abs_lifted(v.beta.c), _abs_lifted(v.beta.r)
    Rq = mpmath.e ** (mpmath.mpf(1) / q)
    if not r * Rq < 1:
        return False
    return _within(c / (1 - r * Rq), mpmath.e ** (-mpmath.mpf(1) / q), _FLOAT)


@replayer("dual_geometric_decay_bound_topology")
def _replay_dual_geo_topology(v, params):
    q = int(params["q"])
    D = mpmath.mpf(str(params["D"]))
    c, r = _abs_lifted(v.beta.c), _abs_lifted(v.beta.r)
    Rq = mpmath.e ** (mpmath.mpf(1) / q)
    target = _decay_target(v.space, q)
    return r * Rq < 1 and _within(c / (1 - r * Rq) * Rq, D, _FLOAT) and \
        _powers_within(v.beta, (1, 2, 4), 48, lambda k, m: D ** k * target(m), _FLOAT)


@replayer("dual_negbinomial_envelope")
def _replay_negbinom(v, params):
    x = mpmath.mpf(str(params["x"]))
    D = mpmath.mpf(str(params["D"]))
    q = int(params["q"])
    c, r = _abs_lifted(v.beta.c), _abs_lifted(v.beta.r)
    if not (0 < x < 1 and _within(c / (1 - x), D, _TIGHT)
            and _within(r / x, mpmath.e ** q, _TIGHT)):
        return False
    # binomial generating bound C(m+k-1, m) <= (1-x)^{-k} x^{-m}, exact spot check
    xf = Fraction(str(params["x"]))
    for k in (1, 2, 5):
        for m in (0, 1, 7, 23):
            if Fraction(math.comb(m + k - 1, m)) > (1 - xf) ** (-k) * xf ** (-m):
                return False
    return True


@replayer("dual_negbinomial_contraction")
def _replay_negbinom_pb(v, params):
    return _replay_negbinom(v, params) and _within(mpmath.mpf(str(params["D"])), 1, _TIGHT)


@replayer("hat_power_norm_envelope")
def _replay_hat_envelope(v, params):
    # ||T^k e_n||_p <= C_p^k ||e_n||_{q(p)}
    q_of_p = {int(p): int(q) for p, q in params["q_of_p"].items()}
    C_p = {int(p): mpmath.mpf(str(c)) for p, c in params["C_p"].items()}
    N, ns = _dense_size(v, 24, (1, 2, 8))
    return _columns_within(dense_hat(v.theta, N), v.space, (1, 2, 3), list(C_p)[:2],
                           ns, N, lambda Mk, k, p: (C_p[p] ** k, q_of_p[p]), _FLOAT)


@replayer("hat_per_power_symbol_norms")
def _replay_hat_per_power(v, params):
    # the single-application column bound at the power symbol:
    # ||T^k e_n||_p <= ||theta^{*k}||_q ||e_n||_q with q = q_mult * p, the
    # symbol norm read off the first column of T^k
    q_mult = int(params["q_mult"])
    N, ns = _dense_size(v, 24, (1, 3, 8))

    def bound(Mk, k, p):
        return _weighted_column_norm(Mk, 1, v.space, q_mult * p, N), q_mult * p
    return _columns_within(dense_hat(v.theta, N), v.space, (1, 2, 3), (1, 2),
                           ns, N, bound, _FLOAT)


@replayer("toeplitz_power_bound_sum")
def _replay_toeplitz_pb(v, params):
    space = v.space
    if space.is_finite_type:
        total, _ = _mp_ell1(v.theta)
        if v.beta is not None and not v.beta.is_zero:
            total += mpmath.mpf(str(params["B_upper"]))
    else:
        if v.theta is not None and not v.theta.is_zero:
            return False
        total, _ = _mp_ell1(v.beta)
    if not _within(total, 1, _TIGHT):
        return False
    # power boundedness, ||T^k e_n||_p <= ||e_n||_{q(p)}, on a small dense grid

    def bound(Mk, k, p):
        q = params.get("q_of_p", {}).get(str(p), 2 * p if space.is_finite_type else p)
        return 1, int(q)
    N, ns = _dense_size(v, 20, (1, 5))
    return _columns_within(dense_toeplitz(v.theta, v.beta, N), space, (1, 3), (1, 2),
                           ns, min(N, 12), bound, _LOOSE)


@replayer("strongly_tame_closed_bounds")
def _replay_tame(v, params):
    # ||T e_n||_p <= b_p ||e_n||_p, on the truncation of the verdict's
    # operator with a missing part read as zero
    bounds = {int(p): mpmath.mpf(str(b)) for p, b in params["bounds"].items()}
    N, ns = _dense_size(v, 24, (1, 3, 9))
    M = dense_toeplitz(v.theta if v.theta is not None else zero_symbol(),
                       v.beta if v.beta is not None else zero_symbol(), N)
    return _columns_within(M, v.space, (1,), list(bounds)[:2], ns, N,
                           lambda Mk, k, p: (bounds[p], p), _LOOSE)


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
            a = abs(_lift(v.beta.coeff_abs_upper(i), False))
            total += a * mpmath.e ** (i + 1)
            if i > 64 and a == 0:
                break
        return _within(total, b, _LOOSE)
    a_val, _ = _mp_ell1(v.beta)
    return _within(a_val, mpmath.mpf(str(params["A_upper"])), _LOOSE)
