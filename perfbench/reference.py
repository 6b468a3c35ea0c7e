"""Independent reference computations and the checks built on them.

Nothing here imports psop.  Convolutions are Fraction Cauchy products,
operator applications are dense matrix-vector products over Fraction, and
weighted sums are evaluated in mpmath.  Each check raises CheckFailed with a
message naming what disagreed; the tests in test_checks.py hand every check a
wrong answer to show that it can fail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import mpmath

DPS = 40
# |log(library) - log(reference)| allowed for float kernels against exact
# sums: float64 rounding over a few thousand terms stays below 1e-12, and a
# 1e-6 relative error (log difference ~1e-6) is rejected.
LOG_TOL = 1e-9
# proved-bound slack tolerance, the same relative tolerance psop's sweeps use
SLACK_TOL = 1e-12


class CheckFailed(AssertionError):
    """A psop output disagreed with the benchmark's own computation."""


# ---------------------------------------------------------------------------
# Exact sequences
# ---------------------------------------------------------------------------


def cauchy(a: Sequence[Fraction], b: Sequence[Fraction],
           n: Optional[int] = None) -> list[Fraction]:
    """(a*b)_m = sum_{i<=m} a_i b_{m-i}, truncated to n terms when given."""
    if not a or not b:
        return []
    length = len(a) + len(b) - 1
    if n is not None:
        length = min(length, n)
    out = [Fraction(0)] * length
    for i, ai in enumerate(a):
        if ai == 0 or i >= length:
            continue
        for j in range(min(len(b), length - i)):
            out[i + j] += ai * b[j]
    return out


def cauchy_power(a: Sequence[Fraction], k: int,
                 n: Optional[int] = None) -> list[Fraction]:
    out = list(a) if n is None else list(a[:n])
    for _ in range(k - 1):
        out = cauchy(out, a, n)
    return out


def trim(values: Iterable) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    while out and out[-1] == 0:
        out.pop()
    return out


def lower_matrix(symbol: Sequence[Fraction], n: int) -> list[list[Fraction]]:
    """Dense n x n lower triangular Toeplitz matrix, entry (i, j) = s_{i-j}."""
    zero = Fraction(0)
    return [[symbol[i - j] if 0 <= i - j < len(symbol) else zero
             for j in range(n)] for i in range(n)]


def upper_matrix(symbol: Sequence[Fraction], n: int) -> list[list[Fraction]]:
    """Dense n x n upper triangular Toeplitz matrix, entry (i, j) = s_{j-i}."""
    zero = Fraction(0)
    return [[symbol[j - i] if 0 <= j - i < len(symbol) else zero
             for j in range(n)] for i in range(n)]


def matvec(m: list[list[Fraction]], x: Sequence[Fraction]) -> list[Fraction]:
    nz = [(j, v) for j, v in enumerate(x) if v != 0]
    return [sum((row[j] * v for j, v in nz), Fraction(0)) for row in m]


def hat_dense(theta: Sequence[Fraction], x: Sequence[Fraction]) -> list[Fraction]:
    """(theta * x)_n = sum_{j<=n} x_j theta_{n-j} on the first len(x) entries."""
    return matvec(lower_matrix(theta, len(x)), x)


def check_dense(beta: Sequence[Fraction], x: Sequence[Fraction]) -> list[Fraction]:
    """(beta star x)_n = sum_{j>=n} x_j beta_{j-n} for finitely supported x."""
    return matvec(upper_matrix(beta, len(x)), x)


def toeplitz_dense(theta, beta, x) -> list[Fraction]:
    return [a + b for a, b in zip(hat_dense(theta, x), check_dense(beta, x))]


def dual_sum(beta: Sequence[Fraction], x: Sequence[Fraction]) -> list[Fraction]:
    """check_dense without the matrix: for each nonzero x_j add x_j beta_i to
    entry j - i (1-based n = j - i >= 1)."""
    out = [Fraction(0)] * len(x)
    for j, xj in enumerate(x):
        if xj == 0:
            continue
        for i, b in enumerate(beta[:j + 1]):
            out[j - i] += xj * b
    return out


def abs_sum(values: Iterable) -> Fraction:
    return sum((abs(Fraction(v)) for v in values), Fraction(0))


# ---------------------------------------------------------------------------
# Weighted sums in mpmath (linear alpha_n = n)
#   finite type:   a_{n,p} = e^{-n/p}      infinite type: a_{n,p} = e^{p n}
# ---------------------------------------------------------------------------


def _mp(v: Fraction):
    v = Fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def log_weight(finite: bool, n: int, p: int):
    return -mpmath.mpf(n) / p if finite else mpmath.mpf(p) * n


def log_weighted_sum(finite: bool, coeffs: Sequence[Fraction], first: int,
                     p: int) -> float:
    """log sum_i |c_i| a_{first+i,p}."""
    with mpmath.workdps(DPS):
        terms = [mpmath.log(abs(_mp(c))) + log_weight(finite, first + i, p)
                 for i, c in enumerate(coeffs) if c != 0]
        if not terms:
            return -math.inf
        top = max(terms)
        return float(top + mpmath.log(mpmath.fsum(mpmath.exp(t - top)
                                                  for t in terms)))


def log_column_norm(finite: bool, power: Sequence[Fraction], n: int, p: int) -> float:
    """log ||T^k e_n||_p = log sum_i |theta^{*k}_i| a_{n+i,p}."""
    return log_weighted_sum(finite, power, n, p)


def log_symbol_norm(finite: bool, theta: Sequence[Fraction], q: int) -> float:
    """log ||theta||_q = log sum_i |theta_i| a_{i+1,q} (notes/decisions.md)."""
    return log_weighted_sum(finite, theta, 1, q)


def log_geometric_column_norm(c: Fraction, r: Fraction, k: int, n: int,
                              p: int) -> float:
    """Finite type, theta_i = c r^i: theta^{*k}_i = c^k r^i C(i+k-1, k-1), so
    sum_i |theta^{*k}_i| e^{-(n+i)/p} = |c|^k e^{-n/p} (1 - |r| e^{-1/p})^{-k}."""
    with mpmath.workdps(DPS):
        t = abs(_mp(r)) * mpmath.exp(-mpmath.mpf(1) / p)
        return float(k * (mpmath.log(abs(_mp(c))) - mpmath.log(1 - t))
                     - mpmath.mpf(n) / p)


def log_geometric_symbol_norm(c: Fraction, r: Fraction, q: int) -> float:
    """Finite type: sum_i |c| |r|^i e^{-(i+1)/q} in closed form."""
    return log_geometric_column_norm(c, r, 1, 1, q)


def log_power_bound_rhs(finite: bool, log_norm_2p: float, k: int, n: int,
                        p: int, corrected: bool) -> float:
    """log of ||theta||_{2p}^k ||e_n||_{2p}, times e^{(k-1)/(2p)} for the
    corrected finite-type bound."""
    rhs = k * log_norm_2p + (-n / (2.0 * p) if finite else 2.0 * p * n)
    if corrected and finite:
        rhs += (k - 1) / (2.0 * p)
    return rhs


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_log_close(got: float, want: float, what: str, tol: float = LOG_TOL) -> None:
    if not (math.isfinite(got) and math.isfinite(want)) and got != want:
        raise CheckFailed(f"{what}: got log {got!r}, reference {want!r}")
    if math.isfinite(want) and abs(got - want) > tol:
        raise CheckFailed(f"{what}: got log {got!r}, reference {want!r} "
                          f"(|diff| {abs(got - want):.3e} > {tol:g})")


def check_log_at_least(got: float, want: float, what: str, tol: float = LOG_TOL) -> None:
    """A majorant must not undercut the reference value."""
    if got < want - tol:
        raise CheckFailed(f"{what}: majorant log {got!r} below reference {want!r}")


def check_bound(lhs: float, rhs: float, what: str, tol: float = SLACK_TOL) -> None:
    if not rhs - lhs >= -tol:
        raise CheckFailed(f"{what}: bound violated, log rhs - log lhs = {rhs - lhs!r}")


def check_slack(min_slack: float, passed: bool, what: str, tol: float = SLACK_TOL) -> None:
    """The sweep passed with a finite minimal slack: a sweep over no grid
    point reports min_slack = +inf."""
    if not (passed and math.isfinite(min_slack) and min_slack >= -tol):
        raise CheckFailed(f"{what}: sweep min_slack {min_slack!r} (passed={passed})")


def check_slack_reached(min_slack: float, ref_slack: float, what: str,
                        tol: float) -> None:
    """A sweep's minimal slack cannot exceed the exact slack at a point of
    its grid: the sweep's left side majorises and its right side minorises
    the exact values, so a sweep that skipped the point or its symbol
    reports too large a minimum."""
    if not min_slack <= ref_slack + tol:
        raise CheckFailed(f"{what}: sweep min_slack {min_slack!r} above the "
                          f"exact slack {ref_slack!r} at a swept point")


def check_equality_at_zero(min_slack: float, what: str, tol: float = SLACK_TOL) -> None:
    """delta at n = 1 meets the corrected bound with equality."""
    if not abs(min_slack) <= tol:
        raise CheckFailed(f"{what}: expected equality up to rounding, min_slack "
                          f"{min_slack!r}")


def check_exact(got: Sequence, want: Sequence, what: str) -> None:
    g, w = trim(got), trim(want)
    if g != w:
        first = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
                     min(len(g), len(w)))
        raise CheckFailed(f"{what}: differs from the reference at index {first}")


HIERARCHY = ("power_bounded", "m_topologizable", "topologizable")


def check_hierarchy(statuses: dict, what: str) -> None:
    """power bounded => m-topologizable => topologizable for holds, and
    failures flow the other way."""
    for stronger, weaker in zip(HIERARCHY, HIERARCHY[1:]):
        s, w = statuses.get(stronger), statuses.get(weaker)
        if s == "holds" and w is not None and w != "holds":
            raise CheckFailed(f"{what}: {stronger} holds but {weaker} is {w}")
        if w == "fails" and s is not None and s != "fails":
            raise CheckFailed(f"{what}: {weaker} fails but {stronger} is {s}")


def check_replayed(ok: bool, what: str) -> None:
    if ok is not True:
        raise CheckFailed(f"{what}: decisive verdict did not replay")


def check_power_bounded_l1(status: str, l1: Fraction, what: str) -> None:
    """Finite-type hat operator: power bounded iff sum |theta_i| <= 1."""
    if status == "inconclusive":
        return
    want = "holds" if l1 <= 1 else "fails"
    if status != want:
        raise CheckFailed(f"{what}: power_bounded {status} but sum |theta_i| = {l1}")


def check_laurent_rows(rows: Sequence[tuple[int, float, float, float]],
                       a: Fraction, what: str) -> None:
    """Coefficients of 1/(a - z) on |z| < |a|: a^{-n-1} for n >= 0, zero for
    n < 0, each within its reported error estimate."""
    with mpmath.workdps(DPS):
        inv = 1 / _mp(a)
        for n, re, im, err in rows:
            want = inv ** (n + 1) if n >= 0 else mpmath.mpf(0)
            dev = abs(mpmath.mpc(re, im) - want)
            if not dev <= err:
                raise CheckFailed(f"{what}: coefficient {n} = {re}+{im}j is "
                                  f"{float(dev):.3e} from {float(want)!r}, "
                                  f"reported error {err!r}")


def check_same_bytes(first: bytes, again: bytes, what: str) -> None:
    if first != again:
        at = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b),
                  min(len(first), len(again)))
        raise CheckFailed(f"{what}: report bytes differ between passes at "
                          f"offset {at}")
