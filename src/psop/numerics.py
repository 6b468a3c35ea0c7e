"""Shared numeric kernels: log-domain aggregation.

Weighted sums on the infinite-type space overflow double precision long
before the truncation indices of interest (exponents reach k*alpha_n ~ 4000),
so every aggregation here works on logarithms and only exponentiates on
demand, with a compensated sum after shifting by the running maximum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

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
    """
    a = np.asarray(log_terms, dtype=float)
    terms = a[a != NEG_INF]
    if not terms.size:
        return 0.0, NEG_INF
    top = terms.max()
    if top == math.inf:
        return math.inf, math.inf
    s = math.fsum(map(math.exp, (terms - top).tolist()))
    logv = top + math.log(s)
    return exp_guarded(logv), logv


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
