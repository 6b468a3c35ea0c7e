"""Tests of the benchmark's own checks and tracer: each check must reject a
wrong answer, so that no check passes whatever it is handed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
from run import import_psop  # noqa: E402
from sweep import SweepWorkload  # noqa: E402


@pytest.fixture(scope="module")
def ps():
    return import_psop()


def test_column_norm_off_by_1e_6_relative_is_rejected():
    power = ref.cauchy_power([Fraction(1, 2), Fraction(-3, 4), Fraction(1, 8)], 3)
    want = ref.log_column_norm(True, power, 5, 2)
    ref.check_log_close(want, want, "column norm")
    for wrong in (want + math.log1p(1e-6), want + math.log1p(-1e-6)):
        with pytest.raises(ref.CheckFailed):
            ref.check_log_close(wrong, want, "column norm")


@pytest.fixture(scope="module")
def swept(ps, tmp_path_factory):
    """An infinite-type power-bound sweep and a finite-type corrected one
    (geometric and finite symbols), each with its outcome."""
    wl = SweepWorkload(ps, 1, tmp_path_factory.mktemp("sweep"))
    wl.build()
    ops = [o for o in wl.ops if o.label in ("hat_power_bound_infinite",
                                            "hat_power_bound_finite_corrected")]
    return wl, [(op, op.run()) for op in (ops[0], ops[-1])]


def test_sweep_sample_rejects_a_perturbed_column_kernel(ps, swept, monkeypatch):
    wl, cases = swept
    for op, outcome in cases:
        for theta in op.data["thetas"]:
            wl._check_sample(op, theta, outcome)
    kernel = ps.operators.hat_column_log_norms
    monkeypatch.setattr(ps.operators, "hat_column_log_norms",
                        lambda *a, **k: kernel(*a, **k) + math.log1p(1e-6))
    for op, outcome in cases:
        for theta in op.data["thetas"]:   # a geometric and a finite symbol
            with pytest.raises(ref.CheckFailed, match="column norm"):
                wl._check_sample(op, theta, outcome)


def test_sweep_that_skips_its_grid_is_rejected(swept):
    """A sweep over no point reports min_slack = +inf; one that skipped the
    points where the bound is tight reports a minimum above their slack."""
    wl, cases = swept
    op, outcome = cases[0]
    with pytest.raises(ref.CheckFailed):
        wl.check(op, SimpleNamespace(name=outcome.name, passed=True,
                                     min_slack=math.inf, detail={}))
    with pytest.raises(ref.CheckFailed, match="above the exact slack"):
        wl._check_sample(op, op.data["thetas"][0],
                         SimpleNamespace(min_slack=1e6, passed=True))
    ref.check_slack_reached(0.5, 0.5, "sweep", 1e-9)
    with pytest.raises(ref.CheckFailed):
        ref.check_slack_reached(0.5 + 1e-6, 0.5, "sweep", 1e-9)


def test_geometric_closed_form_matches_a_long_partial_sum():
    c, r, k, n, p = Fraction(3, 2), Fraction(5, 8), 3, 4, 2
    power = ref.cauchy_power([c * r ** i for i in range(400)], k, 400)
    partial = ref.log_column_norm(True, power, n, p)
    assert abs(partial - ref.log_geometric_column_norm(c, r, k, n, p)) < 1e-12


def test_violated_bound_and_slack_are_rejected():
    ref.check_bound(1.0, 1.0, "bound")
    with pytest.raises(ref.CheckFailed):
        ref.check_bound(1.0, 1.0 - 1e-9, "bound")
    with pytest.raises(ref.CheckFailed):
        ref.check_slack(-1e-10, True, "sweep")
    with pytest.raises(ref.CheckFailed):
        ref.check_slack(0.5, False, "sweep")
    ref.check_equality_at_zero(-7.1e-15, "delta")
    with pytest.raises(ref.CheckFailed):
        ref.check_equality_at_zero(1e-6, "delta")


def test_changed_exact_entry_is_rejected():
    ref.check_exact([1, Fraction(1, 2), 0], [Fraction(1), Fraction(1, 2)], "conv")
    with pytest.raises(ref.CheckFailed):
        ref.check_exact([1, Fraction(1, 2)], [1, Fraction(1, 3)], "conv")


def test_dense_products_agree_with_cauchy_products():
    theta = [Fraction(1, 2), Fraction(-1), Fraction(3, 4)]
    x = [Fraction(0), Fraction(2), Fraction(0), Fraction(-1, 8)] + [Fraction(0)] * 4
    assert ref.hat_dense(theta, x) == ref.cauchy(theta, x, len(x))
    assert ref.check_dense(theta, x) == ref.dual_sum(theta, x)


def test_flipped_verdict_is_rejected():
    ref.check_power_bounded_l1("holds", Fraction(1), "pb")
    ref.check_power_bounded_l1("fails", Fraction(3, 2), "pb")
    ref.check_power_bounded_l1("inconclusive", Fraction(1), "pb")
    with pytest.raises(ref.CheckFailed):
        ref.check_power_bounded_l1("fails", Fraction(1), "pb")
    with pytest.raises(ref.CheckFailed):
        ref.check_power_bounded_l1("holds", Fraction(3, 2), "pb")
    ok = {"power_bounded": "holds", "m_topologizable": "holds", "topologizable": "holds"}
    ref.check_hierarchy(ok, "hierarchy")
    with pytest.raises(ref.CheckFailed):
        ref.check_hierarchy(dict(ok, m_topologizable="fails"), "hierarchy")
    with pytest.raises(ref.CheckFailed):
        ref.check_hierarchy(dict(ok, topologizable="fails"), "hierarchy")
    with pytest.raises(ref.CheckFailed):
        ref.check_replayed(False, "replay")


def test_changed_laurent_coefficient_is_rejected():
    a = Fraction(2)
    rows = [(n, float(a ** (-n - 1)) if n >= 0 else 0.0, 0.0, 1e-12)
            for n in range(-4, 9)]
    ref.check_laurent_rows(rows, a, "laurent")
    n, re, im, err = rows[7]
    bad = rows[:7] + [(n, re + 1e-9, im, err)] + rows[8:]
    with pytest.raises(ref.CheckFailed):
        ref.check_laurent_rows(bad, a, "laurent")


def test_changed_report_byte_is_rejected():
    report = b'{\n  "schema": 1,\n  "verdicts": []\n}\n'
    ref.check_same_bytes(report, bytes(report), "report")
    changed = bytearray(report)
    changed[12] ^= 1
    with pytest.raises(ref.CheckFailed):
        ref.check_same_bytes(report, bytes(changed), "report")


def test_covered_is_the_union_of_intervals():
    assert tracing._covered([]) == 0.0
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_tracer_sees_internal_calls_and_uninstalls(ps):
    original = ps.symbols.convolve
    tr = tracing.Tracer(ps)
    tr.install()
    try:
        # operators imported convolve with `from .symbols import ...`
        assert ps.operators.convolve is ps.symbols.convolve is not original
        theta = ps.symbols.finite_symbol([Fraction(1, 2), Fraction(1, 4)])
        ps.symbols.conv_power(theta, 3, 16)
        got = tr.snapshot()
    finally:
        tr.uninstall()
    assert ps.symbols.convolve is original and ps.operators.convolve is original
    assert got["symbols.conv_power.calls"] == 1
    assert got["symbols.convolve.calls"] == 2
    assert got["symbols.ConvPowerTable.power.calls"] == 3
    assert got["symbols.coeff.calls"] > 0
    assert 0.0 <= got["symbols.conv_power.self_s"]
    names = {name for name, _ in tracing.metric_names()}
    assert {k for k in got} <= names
