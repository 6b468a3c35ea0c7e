import math
from fractions import Fraction

import numpy as np
import pytest

from psop import (
    GridParams,
    NonReplayable,
    Status,
    UnsupportedSpace,
    basis_element,
    classify_check_all,
    classify_check_finite,
    classify_check_infinite,
    classify_hat_m_top,
    classify_hat_power_bounded_finite,
    classify_hat_power_bounded_infinite,
    classify_hat_topologizable,
    classify_toeplitz,
    delta_symbol,
    finite_symbol,
    finite_type_space,
    geometric_symbol,
    make_check_operator,
    make_hat_operator,
    make_toeplitz_operator,
    mean_ergodic_probe,
    replay_verdict,
    root_alpha,
    sampled_symbol,
    strongly_tame_probe,
    zero_symbol,
)
from psop.operators import OperatorContractError, hat_column_log_norms
from psop.spaces import GeometricEnvelope
from psop.symbols import ConvPowerTable, float_symbol

GRID = GridParams()


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------


def test_hat_m_top_examples(fin, inf):
    v = classify_hat_m_top(fin, finite_symbol([1, 1]), GRID)
    assert v.status is Status.HOLDS
    # the per-grade symbol norms match the two-term sums
    for p in (1, 2, 4):
        want = math.exp(-1 / (2 * p)) + math.exp(-2 / (2 * p))
        assert v.evidence["symbol_norms"][p] == pytest.approx(want, rel=1e-12)
    v = classify_hat_m_top(inf, delta_symbol(), GRID)
    assert v.status is Status.HOLDS
    for p in (1, 3):
        assert v.evidence["C_p"][p] == pytest.approx(math.exp(p), rel=1e-12)
    v = classify_hat_m_top(fin, geometric_symbol(1.0, 0.5), GRID)
    assert v.status is Status.HOLDS
    assert all(math.isfinite(c) for c in v.evidence["C_p"].values())


def test_hat_m_top_certificates_replay(fin, inf):
    for space, theta in [(fin, finite_symbol([1, 1])),
                         (fin, geometric_symbol(1, 1)),    # ell1 infinite
                         (inf, finite_symbol([2, 3, -1])),
                         (fin, geometric_symbol(1.0, 0.5))]:
        v = classify_hat_m_top(space, theta, GRID)
        assert v.status is Status.HOLDS
        assert replay_verdict(v)
        t = classify_hat_topologizable(space, theta, GRID)
        assert t.status is Status.HOLDS
        assert replay_verdict(t)


def test_hat_m_top_inconclusive_on_explicit_alpha():
    from psop.spaces import explicit_alpha, infinite_type_space

    space = infinite_type_space(explicit_alpha([1.0, 2.0, 4.0, 4.5, 5.0], "hold"))
    v = classify_hat_m_top(space, finite_symbol([1, 1]), GRID)
    assert v.status is Status.INCONCLUSIVE
    # topologizability stays decisive through per-power constants
    t = classify_hat_topologizable(space, finite_symbol([1, 1]), GRID)
    assert t.status is Status.HOLDS


def test_hat_power_bounded_finite_decisive(fin):
    v = classify_hat_power_bounded_finite(fin, geometric_symbol(Fraction(1, 2),
                                                               Fraction(1, 2)), GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_hat_power_bounded_finite(fin, finite_symbol([1, 1]), GRID)
    assert v.status is Status.FAILS and replay_verdict(v)
    logs = v.evidence["first_column_log_norms"]
    assert all(b > a for a, b in zip(logs, logs[1:]))  # monotone growth
    v = classify_hat_power_bounded_finite(fin, zero_symbol(), GRID)
    assert v.status is Status.HOLDS


def test_hat_power_bounded_finite_tail_unbounded_is_inconclusive(fin):
    s = sampled_symbol([0.1, 0.1], GeometricEnvelope(1.0, 1.0))
    v = classify_hat_power_bounded_finite(fin, s, GRID)
    assert v.status is Status.INCONCLUSIVE
    with pytest.raises(NonReplayable):
        replay_verdict(v)


def test_hat_power_bounded_finite_consistency_with_orbit(fin):
    # Holds implies the power-norm sweep stays below ||e_n||_{2p}
    theta = finite_symbol([Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])
    v = classify_hat_power_bounded_finite(fin, theta, GRID)
    assert v.status is Status.HOLDS
    table = ConvPowerTable(float_symbol(theta), 320)
    for p in (1, 2):
        logw_q = fin.log_weights(1, 64, 2 * p)
        for k in (1, 4, 16):
            lhs = hat_column_log_norms(fin, table.power(k), p, 64)
            assert np.all(lhs <= logw_q + 1e-9)


def test_hat_power_bounded_infinite(inf):
    v = classify_hat_power_bounded_infinite(inf, delta_symbol(Fraction(1, 2)), GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_hat_power_bounded_infinite(inf, delta_symbol(2), GRID)
    assert v.status is Status.FAILS and replay_verdict(v)
    assert v.witness == {"k": GRID.K, "n": 1, "p": 1}
    v = classify_hat_power_bounded_infinite(
        inf, finite_symbol([Fraction(1, 2), Fraction(1, 2)]), GRID)
    assert v.status is Status.INCONCLUSIVE
    assert v.evidence["growth_suspected"]
    v = classify_hat_power_bounded_infinite(inf, finite_symbol([1, 1]), GRID)
    assert v.status is Status.FAILS  # nonnegative sum 2 > 1


# ---------------------------------------------------------------------------
# dual operator
# ---------------------------------------------------------------------------


def test_check_infinite_examples(inf):
    for mode in ("topologizable", "m_topologizable", "power_bounded"):
        v = classify_check_infinite(inf, delta_symbol(Fraction(1, 2)), mode, GRID)
        assert v.status is Status.HOLDS
    v = classify_check_infinite(inf, finite_symbol([0, 1]), "power_bounded", GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_check_infinite(inf, delta_symbol(3), "power_bounded", GRID)
    assert v.status is Status.FAILS and replay_verdict(v)
    assert v.witness["n"] == 1
    # m-topologizability survives the power-bound failure
    assert classify_check_infinite(inf, delta_symbol(3), "m_top", GRID).status \
        is Status.HOLDS


def test_check_finite_examples(fin):
    v = classify_check_finite(fin, delta_symbol(Fraction(1, 2)), "power_bounded", GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_check_finite(fin, finite_symbol([1, 1]), "topologizable", GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_check_finite(fin, finite_symbol([1, 1]), "power_bounded", GRID)
    assert v.status is Status.FAILS and replay_verdict(v)
    grow = sampled_symbol([1.0, 3.0, 9.0],
                          __import__("psop").ExponentialEnvelope(1.0, 1, 1))
    with pytest.raises(OperatorContractError):
        classify_check_finite(fin, grow, "topologizable", GRID)


def test_check_wrong_space_type_raises(fin, inf):
    with pytest.raises(UnsupportedSpace):
        classify_check_infinite(fin, delta_symbol(), "topologizable", GRID)
    with pytest.raises(UnsupportedSpace):
        classify_check_finite(inf, delta_symbol(), "topologizable", GRID)


def test_check_hierarchy_propagation(fin, inf):
    order = ["power_bounded", "m_topologizable", "topologizable"]
    rank = {Status.HOLDS: 2, Status.INCONCLUSIVE: 1, Status.FAILS: 0}
    for space, beta in [(inf, finite_symbol([0, 1])),
                        (inf, geometric_symbol(Fraction(1, 4), 2)),
                        (fin, geometric_symbol(Fraction(1, 8), Fraction(1, 2))),
                        (fin, finite_symbol([Fraction(1, 4), Fraction(1, 4)]))]:
        verdicts = classify_check_all(space, beta, GRID)
        statuses = [verdicts[p].status for p in order]
        for a, b in zip(statuses, statuses[1:]):
            assert rank[a] <= rank[b] or a is not Status.HOLDS
        if statuses[0] is Status.HOLDS:
            assert statuses[1] is Status.HOLDS and statuses[2] is Status.HOLDS


def test_check_grid_doubling_never_flips(fin, inf):
    big = GRID.doubled()
    for space, beta in [(inf, delta_symbol(3)), (fin, finite_symbol([1, 1])),
                        (inf, geometric_symbol(Fraction(1, 2), Fraction(1, 2)))]:
        small = classify_check_all(space, beta, GRID)
        large = classify_check_all(space, beta, big)
        for prop, v in small.items():
            if v.decisive:
                assert large[prop].status is v.status


def test_dual_evidence_fields(inf):
    v = classify_check_infinite(inf, geometric_symbol(1.0, 0.5), "power_bounded", GRID)
    ev = v.evidence
    assert "q_k" in ev and "mtop_fit" in ev and "power_bound_q" in ev
    assert ev["grid"]["Q"] == GRID.Q


# ---------------------------------------------------------------------------
# strong tameness and the mixed operator
# ---------------------------------------------------------------------------


def test_strongly_tame_probe_examples(fin, inf, small_grid):
    op = make_hat_operator(inf, finite_symbol([1, 1]))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.HOLDS
    for p, bound in rep.closed_bounds.items():
        assert rep.grid_constants[p] <= bound * (1 + 1e-12)
    assert rep.closed_bounds[1] == pytest.approx(math.e + math.e ** 2, rel=1e-12)

    op = make_check_operator(inf, geometric_symbol(1.0, 0.5))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.HOLDS
    assert rep.closed_bounds[1] == pytest.approx(2.0, rel=1e-9)

    op = make_check_operator(fin, geometric_symbol(1.0, math.exp(-2)))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.HOLDS
    assert rep.closed_bounds[1] == pytest.approx(math.e / (1 - math.exp(-1)), rel=1e-9)
    assert replay_verdict(rep.verdict)


def test_strongly_tame_probe_divergent_weighted_sum(fin, small_grid):
    # dual symbol whose exponentially weighted sum diverges: no closed bound
    op = make_check_operator(fin, geometric_symbol(1.0, Fraction(1, 2)))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.INCONCLUSIVE


def test_classify_toeplitz_examples(fin, inf, small_grid):
    d = classify_toeplitz(inf, zero_symbol(),
                          geometric_symbol(Fraction(1, 2), Fraction(1, 2)), small_grid)
    assert d["power_bounded"].status is Status.HOLDS
    assert d["m_topologizable"].status is Status.HOLDS
    assert replay_verdict(d["power_bounded"])

    d = classify_toeplitz(fin, delta_symbol(1), zero_symbol(), small_grid)
    assert d["power_bounded"].status is Status.HOLDS  # exact boundary sum = 1
    assert replay_verdict(d["power_bounded"])

    d = classify_toeplitz(inf, zero_symbol(), geometric_symbol(1, 1), small_grid)
    assert d["m_topologizable"].status is Status.INCONCLUSIVE
    assert d["power_bounded"].status is Status.INCONCLUSIVE
    assert d["m_topologizable"].evidence["A_infinite"]

    d = classify_toeplitz(inf, finite_symbol([1]), delta_symbol(Fraction(1, 4)),
                          small_grid)
    # nonzero forward symbol: the sufficient sum cannot certify on Lambda-inf
    assert d["power_bounded"].status is Status.INCONCLUSIVE
    assert d["m_topologizable"].status is Status.HOLDS

    with pytest.raises(UnsupportedSpace):
        classify_toeplitz(finite_type_space(root_alpha(2)), delta_symbol(),
                          zero_symbol(), small_grid)


# ---------------------------------------------------------------------------
# ergodic probes
# ---------------------------------------------------------------------------


def test_mean_ergodic_probe_identity(fin, small_grid):
    op = make_hat_operator(fin, delta_symbol())
    x = basis_element(1, 32, fin)
    rep = mean_ergodic_probe(op, x, small_grid)
    assert rep.mean_estimate.values[0] == pytest.approx(1.0)
    assert np.all(np.isneginf(rep.mean_diff_log))
    assert rep.triangle_ok


def test_mean_ergodic_probe_scalar_decay(fin, small_grid):
    op = make_hat_operator(fin, delta_symbol(Fraction(1, 2)))
    x = basis_element(1, 32, fin)
    rep = mean_ergodic_probe(op, x, small_grid)
    # ||T^k x||_p / k -> 0 and the Cesaro means shrink like 1/k
    col = rep.orbit_over_k[:, 0]
    assert col[-1] < col[0]
    assert rep.triangle_ok


def test_mean_ergodic_probe_shift(fin, small_grid):
    op = make_hat_operator(fin, finite_symbol([0, 1]))
    rep = mean_ergodic_probe(op, basis_element(1, 48, fin), small_grid)
    assert rep.triangle_ok
    # the Cesaro ratio evidence found some workable grade
    for p, (q, ratio) in rep.cesaro_ratio.items():
        assert 1 <= q <= small_grid.Q and math.isfinite(ratio)


def test_mean_ergodic_probe_complex_toeplitz_matches_hat(fin, small_grid):
    # with beta = 0 the Toeplitz operator is the forward operator of delta(c);
    # its dense Cesaro route must keep the imaginary part of c
    c = 0.5j
    x = basis_element(1, 32, fin)
    toep = make_toeplitz_operator(fin, finite_symbol([c]), finite_symbol([0]))
    hat = make_hat_operator(fin, delta_symbol(c))
    got = mean_ergodic_probe(toep, x, small_grid).cesaro_ratio
    want = mean_ergodic_probe(hat, x, small_grid).cesaro_ratio
    assert got.keys() == want.keys()
    for p, (q, ratio) in want.items():
        assert ratio > 0
        assert got[p][0] == q
        assert abs(got[p][1] - ratio) <= 1e-12
