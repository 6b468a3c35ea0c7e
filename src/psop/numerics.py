"""Shared numeric kernels: log-domain aggregation.

Weighted sums on the infinite-type space overflow double precision long
before the truncation indices of interest (exponents reach k*alpha_n ~ 4000),
so every aggregation here works on logarithms and only exponentiates on
demand, with a compensated sum after shifting by the running maximum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

NEG_INF = float("-inf")
LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

T = TypeVar("T")
R = TypeVar("R")


def exp_guarded(x: float) -> float:
    """exp(x) that saturates to inf instead of raising OverflowError."""
    if x > LOG_FLOAT_MAX:
        return math.inf
    return math.exp(x)


def log_abs(x) -> float:
    a = abs(x)
    if a == 0:
        return NEG_INF
    if isinstance(a, Fraction):
        # floats underflow long before exact rationals do
        return math.log(a.numerator) - math.log(a.denominator)
    return math.log(a)


def sum_exp(log_terms: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Sum of exp(t) over log-domain terms. Returns (value, log_value).

    sum_exp_rows on one row: log_value stays finite and accurate even when
    value overflows, and an empty row or one of -inf terms gives (0.0, -inf).
    """
    logv = sum_exp_rows(np.asarray(log_terms, dtype=float).reshape(1, -1))[0]
    return exp_guarded(logv), logv


def sum_exp_rows(a: np.ndarray, unseen: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """log sum exp(t) for each row of a 2-D float array, one row's shift and
    libm exponentials at a time (np.exp can differ in the last bit): +inf in
    a row gives +inf, -inf terms only give -inf, a NaN gives NaN.  unseen
    bounds per row the log sum of the terms a row leaves out: the sums are
    the whole rows', or None where a row needs those terms."""
    out = np.max(a, axis=1, initial=NEG_INF)
    for i, top in enumerate(out.tolist()):
        u = NEG_INF if unseen is None else unseen[i]
        if top == math.inf or top == u == NEG_INF:
            continue    # a row with +inf is its max; a row of -inf sums to -inf
        if top == NEG_INF:
            return None     # the row's max may be among the unseen terms
        out[i] = v = _shifted_log_sum(top, a[i] - top, exp_guarded(u - top))
        if v is None:
            return None
    return out


def estimate_sum_exp_rows(a: np.ndarray) -> np.ndarray:
    """sum_exp_rows(a) estimated in one pass, numpy's exp and pairwise sum for
    libm's exp and fsum: within ulps where finite and below 2**16 (section 9
    of notes/decisions.md).  A row with a NaN or +inf term is not finite.
    a is overwritten: the shift and the exponentials run in place."""
    top = np.max(a, axis=1, initial=NEG_INF)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(a, shift[:, None], out=a)
        return shift + np.log(np.exp(a, out=a).sum(axis=1))


# every float x < _NEAR has exp(x) < _FAR_TERM
_NEAR = -64.0
_FAR_TERM = 2.0 * math.exp(_NEAR)


def _shifted_log_sum(top: float, shifted: np.ndarray, unseen: float) -> Optional[float]:
    """top + log(fsum(exp(shifted))) without the terms below -746 (a NaN stays),
    from E = exp of the terms from -64 up when fsum(E + [B]) == fsum(E), B
    bounding the rest and the unseen terms (notes/decisions.md section 9);
    else from every term, or None when terms are unseen."""
    if top != top:
        return top      # a NaN term is the max (np.max), and NaN is every shifted term
    exps = list(map(math.exp, shifted[shifted >= _NEAR].tolist()))
    s = math.fsum(exps)
    far = len(shifted) - len(exps)      # of which those below -746 have exp 0
    bound = (far and far - np.count_nonzero(shifted < -746.0)) * _FAR_TERM + unseen
    if bound:
        exps.append(bound)
        if math.fsum(exps) != s:       # also when s is NaN
            if unseen:
                return None
            s = math.fsum(map(math.exp, shifted[~(shifted < -746.0)].tolist()))
    return top + math.log(s)


def logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    return float(np.logaddexp(a, b))


def log_nonneg(a: np.ndarray) -> np.ndarray:
    """Elementwise log of a nonnegative array, -inf where an entry is 0."""
    return np.where(a > 0, np.log(np.maximum(a, 1e-320)), NEG_INF)


def map_cells(fn: Callable[[T], R], cells: Sequence[T]) -> list[R]:
    """Apply fn over independent sweep cells, results in submission order.

    A plain loop: the cells are Python code that holds the GIL, so threads
    would not run them side by side.  It stays a named function because the
    benchmark's tracer (perfbench/tracer.py) patches `numerics.map_cells` by
    name to time the sweep cells, and fails at install if it is missing.
    """
    return [fn(c) for c in cells]


def fmt17(x: float) -> str:
    """17-significant-digit formatting for CSV series."""
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"
