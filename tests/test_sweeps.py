"""The power-bound sweep's certified pruning and its scale invariance.

sweep_hat_power_bound estimates every (p, k) cell's slack and sums exactly
only the rows of cells that can reach the minimum (notes/decisions.md
section 9, "Same minimum, fewer exact sums").  Setting SLACK_EST_ERR to
inf selects every cell: the sweep as it was before the pruning.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psop import (
    GeometricEnvelope,
    delta_symbol,
    finite_symbol,
    finite_type_space,
    geometric_symbol,
    infinite_type_space,
    sampled_symbol,
)
from psop import UnsupportedSpace, root_alpha, verification
from psop.numerics import estimate_sum_exp_rows, log_nonneg, sum_exp_rows
from psop.spaces import TailUnbounded
from psop.symbols import float_power_rows

from test_operators import BENCH_HAT_SHAPES

FIN = finite_type_space()
INF = infinite_type_space()
F = Fraction


def _key(out):
    return out.passed, repr(out.min_slack), repr(out.detail)


def _sweep(space, thetas, n_max, p_max, k_max, corrected, every_cell=False):
    with pytest.MonkeyPatch.context() as mp:
        if every_cell:
            mp.setattr(verification, "SLACK_EST_ERR", math.inf)
        return verification.sweep_hat_power_bound(space, thetas, "x", n_max, p_max, k_max,
                                                  corrected=corrected)


def _counting_sums(mp):
    """Patch the sweep's exact row sums to record (rows summed, settled)."""
    real = verification.forward_log_sums
    calls = []

    def sums(space, logs, *args, **kwargs):
        out = real(space, logs, *args, **kwargs)
        calls.append((logs.shape[0], out is not None))
        return out

    mp.setattr(verification, "forward_log_sums", sums)
    return calls


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
_finite = st.lists(_fractions, min_size=1, max_size=6).map(finite_symbol)
_ratios = st.sampled_from([F(-7, 8), F(-1, 2), F(1, 8), F(1, 2), F(3, 4), F(7, 8)])
_real_c = st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(bool)
_complex_c = st.tuples(st.integers(-8, 8), st.integers(1, 8)).map(
    lambda ab: complex(ab[0] / 4, ab[1] / 4))
_geometric = st.builds(geometric_symbol, st.one_of(_real_c, _complex_c), _ratios)


@st.composite
def _sampled(draw, gapped):
    """A float window under a geometric envelope: a support bound ends it,
    or, when gapped, maybe its gap is past the window (the float powers of
    such a symbol read into the gap, so only k = 1 sweeps it)."""
    ratio = draw(st.sampled_from([0.25, 0.5, 0.8]))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
    units = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10))
    values = [u * scale * ratio ** i for i, u in enumerate(units)]
    support = draw(st.sampled_from([None, len(values)])) if gapped else len(values)
    return sampled_symbol(values, GeometricEnvelope(scale, ratio), support_len=support)


@st.composite
def _sweep_cases(draw):
    """(space type, k_max, thetas): the infinite type sweeps symbols whose
    powers carry no truncation window."""
    space_type = draw(st.sampled_from(["finite", "infinite"]))
    k_max = draw(st.sampled_from([1, 2, 5, 32]))
    kinds = [_finite, _geometric, _sampled(k_max == 1)] if space_type == "finite" else [_finite]
    return space_type, k_max, draw(st.lists(st.one_of(*kinds), min_size=1, max_size=2))


# a subnormal window: the sweep rescales it by 2^1032, itself past the float range
_SUBNORMAL = sampled_symbol([1.1125369292535e-311], GeometricEnvelope(0.5, 0.25), support_len=1)


@given(_sweep_cases(), st.booleans(), st.sampled_from([16, 64, 256]), st.integers(1, 8))
@example(("finite", 1, [_SUBNORMAL]), False, 16, 1)
@example(("finite", 2, [_SUBNORMAL]), False, 16, 1)
@settings(max_examples=150, deadline=None)
def test_pruned_sweep_equals_the_all_cells_sweep(case, corrected, n_max, p_max):
    space_type, k_max, thetas = case
    space = FIN if space_type == "finite" else INF
    got = _sweep(space, thetas, n_max, p_max, k_max, corrected)
    want = _sweep(space, thetas, n_max, p_max, k_max, corrected, every_cell=True)
    assert _key(got) == _key(want)


def _headroom_symbols():
    rng = random.Random(26)
    out = [(space_type, theta) for space_type, thetas, _, _ in BENCH_HAT_SHAPES
           for theta in thetas]
    for _ in range(12):
        out.append(("finite", verification.random_theta_finite_space(rng)))
        out.append(("infinite", verification.random_theta_infinite_space(rng)))
    return out


def test_row_estimates_keep_a_thousandfold_headroom_under_the_margin():
    """On the benchmark sweep's symbols and on random draws, every finite row
    estimate lies within SLACK_EST_ERR / 1000 of the exact row sum."""
    worst, rows_seen = 0.0, 0
    for space_type, theta in _headroom_symbols():
        mags, _ = float_power_rows(theta, 32, 256 + 64 * 32 + 8)
        logs = log_nonneg(mags)
        for p in range(1, 9):
            rate = -1.0 / p if space_type == "finite" else float(p)
            a = logs + rate * np.arange(logs.shape[1])
            exact, est = sum_exp_rows(a), estimate_sum_exp_rows(a)
            finite = np.isfinite(exact)
            assert np.array_equal(finite, np.isfinite(est))
            worst = max(worst, float(np.abs(est[finite] - exact[finite]).max()))
            rows_seen += int(finite.sum())
    assert rows_seen > 2000
    assert worst <= verification.SLACK_EST_ERR / 1000


@pytest.mark.parametrize("pad", [0, 1], ids=["one-term rows", "padded rows"])
@pytest.mark.parametrize("p_max", [1, 2])
def test_delta_ties_keep_the_first_cell(p_max, pad):
    """Every cell of delta's corrected finite-type sweep has slack 0 (equality
    at n = 1; for p in {1, 2} every value is a dyadic rational, so the floats
    are exact): every row is summed, and the first cell stays the argmin.
    One-term rows skip the estimate; a zero column (log -inf, which no sum
    reads) makes the sweep estimate them, and every cell ties."""
    real = verification.float_power_rows

    def padded(theta, K, N):
        mags, windows = real(theta, K, N)
        return np.pad(mags, ((0, 0), (0, pad))), windows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "float_power_rows", padded)
        calls = _counting_sums(mp)
        out = verification.sweep_hat_power_bound(FIN, [delta_symbol()], "x", 64, p_max, 32,
                                                 corrected=True)
    assert sum(n for n, _ in calls) == 32 * p_max
    assert out.min_slack == 0.0 and out.detail == {"argmin": {"p": 1, "k": 1, "symbol": 0}}
    assert _key(out) == _key(_sweep(FIN, [delta_symbol()], 64, p_max, 32, True,
                                    every_cell=True))


@pytest.mark.parametrize("space,theta,n_max,p_max", [
    (FIN, finite_symbol([0]), 32, 3),                      # rows of -inf: +inf slack
    (INF, finite_symbol([F(1, 2), F(-1, 4)]), 9000, 4),   # |rhs| = 8 * 9000 at p = 4
])
def test_a_cell_the_margin_does_not_cover_sums_every_cell(space, theta, n_max, p_max):
    """A non-finite estimate, or one past the range the margin covers, in
    any grade: every cell is summed, as without the pruning."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_sums(mp)
        out = verification.sweep_hat_power_bound(space, [theta], "x", n_max, p_max, 4)
    assert sum(n for n, _ in calls) == p_max * 4
    assert _key(out) == _key(_sweep(space, [theta], n_max, p_max, 4, False, every_cell=True))


@pytest.mark.parametrize("corrected,cols", [(True, 40), (False, 80)],
                         ids=["corrected", "literal"])
def test_short_columns_fall_back_to_whole_rows_with_the_pruning_on(corrected, cols):
    """Too few columns cannot settle the powers of this geometric theta; the
    selected rows are rebuilt on the whole window, and the outcome is the
    all-cells sweep's.  The literal sweep's minimum sits at p 1, k 32, a row
    whose first 80 columns hold a small part of its sum: only the unseen
    bound in its margin keeps that cell selected."""
    theta = geometric_symbol(F(-3, 2), F(7, 8))
    want = _sweep(FIN, [theta], 256, 8, 32, corrected, every_cell=True)
    real_seen = verification._seen_columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_seen_columns", lambda *args: (cols, real_seen(*args)[1]))
        calls = _counting_sums(mp)
        got = verification.sweep_hat_power_bound(FIN, [theta], "x", 256, 8, 32,
                                                 corrected=corrected)
    assert [settled for _, settled in calls].count(False) == 1
    assert sum(n for n, settled in calls if settled) < 31 * 8     # pruned
    assert _key(got) == _key(want) == _key(_sweep(FIN, [theta], 256, 8, 32, corrected))
    assert want.detail["argmin"] == ({"p": 8, "k": 1, "symbol": 0} if corrected
                                     else {"p": 1, "k": 32, "symbol": 0})


def test_the_benchmark_shapes_sum_few_rows_exactly(monkeypatch):
    """The pruning's point: on the sweep workload's power shapes other than
    delta (whose cells all tie), at most one row in 32 gets an exact sum."""
    calls = _counting_sums(monkeypatch)
    shapes = [(space_type, thetas, corrected) for space_type, thetas, k_max, corrected
              in BENCH_HAT_SHAPES if k_max > 1 and thetas != [delta_symbol()]]
    for space_type, thetas, corrected in shapes:
        verification.sweep_hat_power_bound(FIN if space_type == "finite" else INF,
                                           thetas, "x", 256, 8, 32, corrected=corrected)
    assert sum(n for n, _ in calls) <= 8 * 32 * sum(len(t) for _, t, _ in shapes) / 32


# -- the same outcome at any power-of-two scale of theta ----------------------

def _times(theta, e):
    f = Fraction(2) ** e
    if theta.kind.value == "geometric":
        return geometric_symbol(theta.c * f, theta.r)
    return finite_symbol([v * f for v in theta.entries])


_exact_geometric = st.builds(geometric_symbol, _real_c, _ratios.filter(lambda r: r > 0))


@given(st.sampled_from(["finite", "infinite"]), st.data(), st.integers(-60, 60),
       st.sampled_from([1, 8, 32]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_power_bound_sweep_is_invariant_under_power_of_two_scales(space_type, data, e,
                                                                  k_max, corrected):
    kinds = [_finite, _exact_geometric] if space_type == "finite" else [_finite]
    theta = data.draw(st.one_of(*kinds))
    space = FIN if space_type == "finite" else INF
    base = _sweep(space, [theta], 64, 4, k_max, corrected)
    scaled = _sweep(space, [_times(theta, e)], 64, 4, k_max, corrected)
    assert scaled.passed == base.passed
    assert scaled.min_slack == base.min_slack or abs(scaled.min_slack - base.min_slack) <= 1e-9


@pytest.mark.parametrize("space,theta,e,corrected", [
    (FIN, geometric_symbol(F(1, 2 ** 40), F(1, 2)), 40, True),
    (FIN, geometric_symbol(2 ** 40, F(1, 2)), -40, True),
    (FIN, finite_symbol([F(1, 2 ** 40), F(1, 2 ** 41)]), 40, True),
    (FIN, finite_symbol([2 ** 40, 2 ** 39]), -40, True),
    (INF, finite_symbol([2 ** 40, 2 ** 39]), -40, False),
], ids=["geo 2^-40", "geo 2^40", "finite 2^-40", "finite 2^40", "infinite 2^40"])
def test_far_scaled_symbols_sweep_as_their_unit_scaled_copies(space, theta, e, corrected):
    """These failed (-0.47, -inf, -3.12, -inf, -inf) while the float powers
    left the normal range."""
    out = _sweep(space, [theta], 256, 8, 32, corrected)
    unit = _sweep(space, [_times(theta, e)], 256, 8, 32, corrected)
    assert out.passed and unit.passed
    assert abs(out.min_slack - unit.min_slack) <= 1e-9 and out.detail == unit.detail


@pytest.mark.parametrize("space", [FIN, INF], ids=["finite", "infinite"])
@pytest.mark.parametrize("k_max", [1, 2])
def test_a_subnormal_window_sweeps_as_its_finite_list(space, k_max):
    """Rescaled by 2^1032, the window's envelope scale would pass the float
    range; the sweep reads no envelope of the rescaled powers."""
    want = _sweep(space, [finite_symbol(list(_SUBNORMAL.entries))], 16, 1, k_max, False)
    assert _key(_sweep(space, [_SUBNORMAL], 16, 1, k_max, False)) == _key(want)


def test_a_gapped_window_whose_envelope_scale_would_overflow_sweeps():
    theta = sampled_symbol([1e-311], GeometricEnvelope(1.0, 1e-300))
    out = _sweep(FIN, [theta], 16, 1, 1, False)
    assert math.isfinite(out.min_slack)
    assert _key(out) == _key(_sweep(FIN, [theta], 16, 1, 1, False, every_cell=True))


def test_a_sum_past_the_float_range_is_tail_unbounded():
    with pytest.raises(TailUnbounded, match="overflows a float"):
        _sweep(FIN, [finite_symbol([1e308, 1e308])], 16, 2, 1, False)


def test_an_unsweepable_input_raises_a_typed_error():
    """A truncated power on the infinite type has no tail bound, where k_max
    = 1 fails in the symbol norm; a root alpha is not alpha_n = n."""
    theta = geometric_symbol(1, F(1, 2))
    for k_max in (1, 4):
        with pytest.raises(TailUnbounded):
            _sweep(INF, [theta], 32, 4, k_max, False)
    with pytest.raises(UnsupportedSpace):
        _sweep(finite_type_space(root_alpha(2)), [finite_symbol([F(1, 2)])], 16, 1, 1, False)
