import math
from fractions import Fraction

import numpy as np
import pytest

from psop import (
    Element,
    GeometricEnvelope,
    TailUnbounded,
    basis_element,
    cesaro_mean,
    check_apply,
    check_column,
    compose_check,
    compose_hat,
    compute_orbit,
    delta_symbol,
    dense_check,
    dense_hat,
    element_from_symbol,
    finite_symbol,
    geometric_symbol,
    hat_apply,
    hat_column,
    make_check_operator,
    make_hat_operator,
    power_apply,
    seminorm,
    toeplitz_apply,
    toeplitz_matrix,
    zero_symbol,
)
from psop.operators import (
    OperatorContractError,
    add_elements,
    check_column_log_norms,
    hat_column_log_norms,
    matrix_csv,
    orbit_csv,
)
from psop.oracle import dense_matmul
from psop.symbols import prefix


def e(n, N, space=None):
    return basis_element(n, N, space)


def test_hat_column_examples():
    col = hat_column(finite_symbol([1, 1]), 2, 5)
    assert col.values == (0, 1, 1, 0, 0)
    col = hat_column(delta_symbol(), 7, 8)
    assert col.values == (0,) * 6 + (1, 0)
    # certified geometric column norm in closed form
    ln = hat_column_log_norms(
        __import__("psop").finite_type_space(), geometric_symbol(1.0, 0.5), 1, 4)
    want = math.exp(-1) / (1 - math.exp(-1) / 2)
    assert math.exp(ln[0]) == pytest.approx(want, rel=1e-12)


def test_check_column_examples():
    col = check_column(finite_symbol([1, Fraction(1, 2), Fraction(1, 4)]), 3, 5)
    assert col.values == (Fraction(1, 4), Fraction(1, 2), 1, 0, 0)
    assert check_column(delta_symbol(), 5, 5).values == (0, 0, 0, 0, 1)
    assert check_column(finite_symbol([7, 9]), 1, 3).values == (7, 0, 0)


def test_hat_apply_examples(fin):
    x = add_elements(e(1, 5), e(2, 5))
    assert hat_apply(delta_symbol(), x).values == x.values
    assert hat_apply(finite_symbol([0, 1]), e(1, 4)).values == (0, 1, 0, 0)
    got = hat_apply(finite_symbol([1, 1]), x)
    assert got.values == (1, 2, 1, 0, 0)


def test_check_apply_examples():
    x = add_elements(e(1, 5), e(2, 5))
    assert check_apply(delta_symbol(), x).values == x.values
    assert check_apply(finite_symbol([0, 1]), e(2, 4)).values == (1, 0, 0, 0)
    got = check_apply(finite_symbol([1, 1]), x)
    assert got.values == (2, 1, 0, 0, 0)


def test_toeplitz_apply_diagonal_split():
    x = add_elements(e(1, 4), e(2, 4))
    half = delta_symbol(Fraction(1, 2))
    assert toeplitz_apply(half, half, x).values == (1, 1, 0, 0)
    got = toeplitz_apply(finite_symbol([0, 1]), finite_symbol([0, 1]), e(2, 4))
    assert got.values == (1, 0, 1, 0)
    got = toeplitz_apply(finite_symbol([1, 1]), finite_symbol([0, 2]), x)
    assert got.values == (3, 2, 1, 0)


def test_power_apply_examples(fin, inf):
    op = make_hat_operator(fin, delta_symbol())
    x = element_from_symbol(finite_symbol([2, 0, 5]), 6, fin)
    assert power_apply(op, 9, x).values == x.values
    op = make_hat_operator(fin, finite_symbol([1, 1]))
    assert power_apply(op, 2, e(1, 5, fin)).values == (1, 2, 1, 0, 0)
    opc = make_check_operator(inf, finite_symbol([1, 1]))
    assert power_apply(opc, 2, e(3, 5, inf)).values == (1, 2, 1, 0, 0)


def test_power_apply_matches_iterated(fin):
    theta = finite_symbol([Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)])
    op = make_hat_operator(fin, theta)
    x = element_from_symbol(finite_symbol([1, -2, 3]), 12, fin)
    ref = x
    for k in range(1, 6):
        ref = hat_apply(theta, ref)
        assert power_apply(op, k, x).values == ref.values


def test_cesaro_examples(fin):
    op = make_hat_operator(fin, delta_symbol())
    x = element_from_symbol(finite_symbol([3, 1]), 4, fin)
    assert cesaro_mean(op, 10, x).values == x.values
    op = make_hat_operator(fin, delta_symbol(Fraction(1, 2)))
    assert cesaro_mean(op, 2, e(1, 3, fin)).values == (Fraction(3, 8), 0, 0)
    op = make_hat_operator(fin, finite_symbol([0, 1]))
    got = cesaro_mean(op, 3, e(1, 5, fin))
    assert got.values == (0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0)


def test_toeplitz_matrix_examples():
    assert toeplitz_matrix(delta_symbol(), zero_symbol(), 3, exact=True) == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert toeplitz_matrix(finite_symbol([0, 1]), finite_symbol([0, 1]), 2,
                           exact=True) == [[0, 1], [1, 0]]
    assert toeplitz_matrix(finite_symbol([1, 2]), finite_symbol([0, 3]), 2,
                           exact=True) == [[1, 3], [2, 1]]


def test_compose_examples():
    theta = finite_symbol([Fraction(5), Fraction(-1, 2)])
    assert prefix(compose_hat(delta_symbol(), theta, 8), 2) == [5, Fraction(-1, 2)]
    assert prefix(compose_hat(finite_symbol([1, 1]), finite_symbol([1, 1]), 8), 3) \
        == [1, 2, 1]
    got = compose_check(finite_symbol([1, 1]), finite_symbol([1, 0, 1]), 8)
    assert prefix(got, 4) == [1, 1, 1, 1]


def test_compose_check_against_dense_product():
    beta = finite_symbol([1, 1])
    psi = finite_symbol([1, 0, 1])
    gamma = compose_check(beta, psi, 6)
    left = dense_matmul(dense_check(beta, 6), dense_check(psi, 6))
    right = dense_check(gamma, 6)
    assert left.rows == right.rows


def test_commutation_same_kind_only():
    a, b = finite_symbol([1, 2, Fraction(1, 3)]), finite_symbol([Fraction(1, 2), 4])
    ab = dense_matmul(dense_hat(a, 8), dense_hat(b, 8))
    ba = dense_matmul(dense_hat(b, 8), dense_hat(a, 8))
    assert ab.rows == ba.rows
    ab = dense_matmul(dense_check(a, 8), dense_check(b, 8))
    ba = dense_matmul(dense_check(b, 8), dense_check(a, 8))
    assert ab.rows == ba.rows
    # mixed products generally differ (no commutation claim for hat-check)
    hc = dense_matmul(dense_hat(a, 8), dense_check(b, 8))
    ch = dense_matmul(dense_check(b, 8), dense_hat(a, 8))
    assert hc.rows != ch.rows


def test_operator_contract_errors(fin, inf):
    with pytest.raises(OperatorContractError):
        make_hat_operator(fin, geometric_symbol(1, 2))  # not a member
    grow = __import__("psop").sampled_symbol(
        [1.0, 3.0, 9.0], __import__("psop").ExponentialEnvelope(1.0, 1, 1))
    with pytest.raises(OperatorContractError):
        make_check_operator(fin, grow)  # growth envelope violates the dual


def test_check_apply_enveloped_input_composes(inf):
    x = Element(tuple(0.5 ** n for n in range(1, 13)),
                GeometricEnvelope(1.0, 0.5), inf)
    beta = geometric_symbol(1.0, 0.25)
    got = check_apply(beta, x)
    assert got.residual > 0
    # entries carry the exact prefix part: compare against a long truncation
    x_long = Element(tuple(0.5 ** n for n in range(1, 61)))
    want = check_apply(finite_symbol(prefix(beta, 60)), x_long)
    for i in range(12):
        assert got.values[i] == pytest.approx(want.values[i], abs=got.residual)


def test_check_apply_uncomposable_raises(inf):
    x = Element(tuple([1.0] * 8), GeometricEnvelope(1.0, 1.0), inf)
    with pytest.raises(TailUnbounded):
        check_apply(geometric_symbol(1.0, 2.0), x)


def test_orbit_record_tables(fin):
    op = make_hat_operator(fin, finite_symbol([Fraction(1, 2), Fraction(1, 2)]))
    rec = compute_orbit(op, e(1, 32, fin), 12, [1, 2, 4])
    # Cesaro consistency: mean norms below both the running average and max
    for j in range(3):
        running = -math.inf
        acc = []
        for k in range(1, 13):
            acc.append(rec.log_norms[k - 1, j])
            running = max(running, rec.log_norms[k - 1, j])
            avg = math.log(sum(math.exp(v) for v in acc) / k)
            assert rec.log_cesaro[k - 1, j] <= avg + 1e-9
            assert rec.log_cesaro[k - 1, j] <= running + 1e-9
    ratios = rec.ratios()
    assert ratios.shape == (11, 3)


def test_csv_exports(fin):
    M = toeplitz_matrix(finite_symbol([1, 2]), finite_symbol([0, 3]), 3)
    text = matrix_csv(M)
    lines = text.strip().split("\n")
    assert len(lines) == 3 and "," in lines[0] and not lines[0][0].isalpha()
    op = make_hat_operator(fin, delta_symbol(Fraction(1, 2)))
    rec = compute_orbit(op, e(1, 8, fin), 4, [1, 2])
    out = orbit_csv(rec)
    assert out.splitlines()[0] == "k,p,norm,cesaro_norm,tail_bound"
    assert len(out.strip().splitlines()) == 1 + 4 * 2


def test_dual_column_norms_cumulative(inf):
    beta = geometric_symbol(1.0, 2.0)  # growth allowed in the dual
    logs = check_column_log_norms(inf, beta, 1, 24)
    direct = []
    for n in range(1, 25):
        col = check_column(beta, n, 24)
        direct.append(seminorm(inf, Element(col.values, space=inf), 1).log_value)
    assert np.allclose(logs, direct, rtol=1e-12, atol=1e-12)


def _sum_exp_loop(log_terms):
    """The scalar log-sum-exp that numerics.sum_exp vectorises."""
    from psop.numerics import exp_guarded

    terms = [t for t in log_terms if t != -math.inf]
    if not terms:
        return 0.0, -math.inf
    top = max(terms)
    if top == math.inf:
        return math.inf, math.inf
    logv = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    return exp_guarded(logv), logv


def test_sum_exp_matches_the_scalar_loop_bit_for_bit():
    from psop.numerics import sum_exp

    rng = np.random.default_rng(5)
    for size in (1, 7, 300, 2312):
        a = rng.uniform(-800.0, 50.0, size)
        a[rng.random(size) < 0.2] = -math.inf
        assert sum_exp(a) == sum_exp(list(a)) == _sum_exp_loop(list(a))
    assert sum_exp(np.full(5, -math.inf)) == _sum_exp_loop([-math.inf] * 5) == (0.0, -math.inf)
    assert sum_exp(np.zeros(0)) == sum_exp([]) == (0.0, -math.inf)
    spiked = np.array([-1.0, math.inf, -math.inf])
    assert sum_exp(spiked) == _sum_exp_loop(list(spiked)) == (math.inf, math.inf)


# repr(min_slack) of small sweeps (n <= 32, p <= 3, k <= 4), recorded before
# the column kernels read coefficients as arrays.  Exponentials must stay
# libm's: with np.exp in numerics.sum_exp the last two cases move in the
# last digits.
GEO_7_8 = geometric_symbol(Fraction(-3, 2), Fraction(7, 8))
FIN_3 = finite_symbol([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)])
PINNED_SLACKS = [
    ("finite", GEO_7_8, True, "0.3635769637774804"),
    ("finite", GEO_7_8, False, "-0.027635316246607644"),
    ("finite", FIN_3, True, "0.10301229004918183"),
    ("infinite", FIN_3, False, "4.630471123783927"),
    ("finite", geometric_symbol(Fraction(5, 4), Fraction(1, 2)), False,
     "-0.8676657604257447"),
    ("finite", finite_symbol([Fraction(-5, 3), Fraction(4, 5), Fraction(2, 5)]), True,
     "0.07300960451627614"),
]


@pytest.mark.parametrize("space_type,theta,corrected,want", PINNED_SLACKS)
def test_power_bound_sweep_slacks_are_pinned(fin, inf, space_type, theta, corrected, want):
    from psop.verification import sweep_hat_power_bound

    space = fin if space_type == "finite" else inf
    out = sweep_hat_power_bound(space, [theta], "pinned", n_max=32, p_max=3, k_max=4,
                                corrected=corrected)
    assert repr(out.min_slack) == want
