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

    The sum is shifted by the maximum term and accumulated with math.fsum,
    so log_value stays finite and accurate even when value overflows.  The
    masking and the shift run in numpy; the exponentials stay libm's
    math.exp, because np.exp differs from it in the last bit on some inputs.
    Terms more than 746 below the maximum are dropped: their exp is +0.0
    (x < log 2**-1075 = -745.13), and fsum is correctly rounded, so the sum keeps its bits;
    those more than 64 below it too, when a bound on them cannot move the sum.
    """
    a = np.asarray(log_terms, dtype=float)
    terms = a[a != NEG_INF]
    if not terms.size:
        return 0.0, NEG_INF
    top = terms.max()
    if top == math.inf:
        return math.inf, math.inf
    logv = _shifted_log_sum(top, terms - top)
    return exp_guarded(logv), logv


def sum_exp_rows(a: np.ndarray, unseen: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """sum_exp(row)[1] for each row of a 2-D float array, bit for bit, one
    row's shift and exponentials at a time.  unseen bounds per row the log
    sum of the terms a row leaves out: the sums are the whole rows', or None
    where a row needs those terms."""
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
    of notes/decisions.md).  A row with a NaN or +inf term is not finite."""
    top = np.max(a, axis=1, initial=NEG_INF)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.subtract(a, shift[:, None])
        return shift + np.log(np.exp(t, out=t).sum(axis=1))


# every float x < _NEAR has exp(x) < _FAR_TERM
_NEAR = -64.0
_FAR_TERM = 2.0 * math.exp(_NEAR)


def _shifted_log_sum(top: float, shifted: np.ndarray, unseen: float = 0.0) -> Optional[float]:
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
