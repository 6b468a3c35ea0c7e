from dataclasses import replace
from fractions import Fraction

import pytest

from psop import (
    NonReplayable,
    Status,
    classify_check_all,
    classify_hat_power_bounded_finite,
    classify_hat_power_bounded_infinite,
    classify_hat_topologizable,
    delta_symbol,
    dense_apply,
    dense_cesaro,
    dense_check,
    dense_hat,
    dense_power,
    dense_toeplitz,
    finite_symbol,
    geometric_symbol,
    replay_verdict,
)
from psop.classify import GridParams, _propagate_hierarchy
from psop.oracle import column, leading_block


def test_dense_apply_examples():
    ident = dense_hat(delta_symbol(), 4)
    x = [1, 2, 3, 4]
    assert dense_apply(ident, x) == [1, 2, 3, 4]
    shift = dense_hat(finite_symbol([0, 1]), 4)
    assert dense_apply(shift, [1, 0, 0, 0]) == [0, 1, 0, 0]
    sq = dense_power(dense_hat(finite_symbol([1, 1]), 5), 2)
    assert dense_apply(sq, [1, 0, 0, 0, 0]) == [1, 2, 1, 0, 0]


def test_dense_power_and_cesaro_examples():
    ident = dense_hat(delta_symbol(), 4)
    assert dense_power(ident, 7).rows == ident.rows
    c = Fraction(1, 3)
    ces = dense_cesaro(dense_hat(delta_symbol(c), 3), 2)
    want = (c + c * c) / 2
    assert all(ces.rows[i][i] == want for i in range(3))
    cube = dense_power(dense_hat(finite_symbol([1, 1]), 6), 3)
    assert column(cube, 1)[:4] == [1, 3, 3, 1]


def test_matrix_structure():
    M = dense_hat(finite_symbol([1, 2, 3]), 6)
    for i in range(6):
        for j in range(6):
            if i < j:
                assert M.rows[i][j] == 0
            else:
                assert M.rows[i][j] == M.rows[i - j][0]
    U = dense_check(finite_symbol([1, 2, 3]), 6)
    assert [list(r) for r in U.rows] == \
        [list(col) for col in zip(*M.rows)]  # transpose relation


@pytest.mark.parametrize("k", [2, 5, 16])
def test_triangular_truncation_commutes_with_power(k):
    theta = finite_symbol([Fraction(1, 2), 1, Fraction(-1, 3)])
    small = dense_power(dense_hat(theta, 12), k)
    big = dense_power(dense_hat(theta, 24), k)
    assert leading_block(big, 12) == small.rows
    beta = finite_symbol([2, Fraction(1, 5)])
    small = dense_power(dense_check(beta, 12), k)
    big = dense_power(dense_check(beta, 24), k)
    assert leading_block(big, 12) == small.rows


@pytest.mark.parametrize("k", [1, 3, 8])
def test_mixed_toeplitz_leading_block_stability(k):
    theta = finite_symbol([Fraction(1, 3), Fraction(1, 4)])
    beta = finite_symbol([0, Fraction(1, 5), Fraction(1, 7)])
    n = 16
    small = dense_power(dense_toeplitz(theta, beta, n), k)
    big = dense_power(dense_toeplitz(theta, beta, 2 * n), k)
    assert leading_block(big, n // 2) == leading_block(small, n // 2)


def test_high_precision_fallback_for_irrational_symbols():
    import mpmath

    M = dense_hat(geometric_symbol(1.0, 0.5), 6)
    assert not M.exact
    out = dense_apply(M, [1.0, 0, 0, 0, 0, 0])
    assert abs(out[3] - mpmath.mpf(1) / 8) < mpmath.mpf("1e-45")


def test_replay_verdicts(fin, inf):
    grid = GridParams()
    holds = classify_hat_power_bounded_finite(
        fin, geometric_symbol(Fraction(1, 2), Fraction(1, 2)), grid)
    assert replay_verdict(holds)
    fails = classify_hat_power_bounded_infinite(inf, delta_symbol(2), grid)
    assert replay_verdict(fails)
    open_v = classify_hat_power_bounded_infinite(
        inf, finite_symbol([Fraction(1, 2), Fraction(1, 2)]), grid)
    with pytest.raises(NonReplayable):
        replay_verdict(open_v)


def test_dense_size_cap():
    with pytest.raises(ValueError):
        dense_hat(delta_symbol(), 1024)


def test_implied_by_rules_replay_through_the_inner_rule(fin, inf):
    grid = GridParams()
    topo = classify_hat_topologizable(fin, finite_symbol([Fraction(1, 2)]), grid)
    assert topo.certificate.rule == "implied_by_m_topologizable"
    # classify_check_all never leaves m_topologizable open while power_bounded
    # holds, so hand its hierarchy step that state directly
    pb = classify_check_all(inf, delta_symbol(Fraction(1, 2)), grid)["power_bounded"]
    assert pb.status is Status.HOLDS
    out = {"power_bounded": pb}
    for prop in ("m_topologizable", "topologizable"):
        out[prop] = replace(pb, prop=prop, status=Status.INCONCLUSIVE, certificate=None)
    _propagate_hierarchy(out)
    mtop = out["m_topologizable"]
    assert mtop.certificate.rule == "implied_by_power_bounded"
    # the chain nests: topologizable <- m_topologizable <- power_bounded
    assert out["topologizable"].certificate.rule == "implied_by_m_topologizable"
    for v in (topo, mtop, out["topologizable"]):
        assert replay_verdict(v) is True
        for outer in ("implied_by_power_bounded", "implied_by_m_topologizable"):
            cert = replace(v.certificate, rule=outer,
                           params={"inner": {"rule": "no_such_rule", "params": {}}})
            with pytest.raises(NonReplayable):
                replay_verdict(replace(v, certificate=cert))
