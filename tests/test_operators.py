import math
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from psop import (
    Element,
    ExponentialEnvelope,
    GeometricEnvelope,
    TailUnbounded,
    basis_element,
    cesaro_mean,
    check_apply,
    check_column,
    compute_orbit,
    delta_symbol,
    dense_check,
    dense_hat,
    element_from_symbol,
    explicit_alpha,
    finite_symbol,
    finite_type_space,
    geometric_symbol,
    hat_apply,
    hat_column,
    infinite_type_space,
    log_alpha,
    make_check_operator,
    make_hat_operator,
    make_toeplitz_operator,
    root_alpha,
    sampled_symbol,
    seminorm,
    toeplitz_apply,
    toeplitz_matrix,
    zero_symbol,
)
from psop.operators import (
    OperatorContractError,
    OperatorKind,
    OperatorSpec,
    add_elements,
    check_column_log_norms,
    hat_column_log_norms,
    matrix_csv,
    orbit_csv,
    symbol_log_norm_bounds,
)
from psop.oracle import dense_matmul
from psop.symbols import conv_power, convolve, prefix, trimmed_len


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


def power_apply(op, k, x):
    """T^k x by the symbol route, the k-th convolution power applied once,
    for the pure kinds; iterated application for the Toeplitz kind."""
    if op.kind is OperatorKind.HAT:
        return hat_apply(conv_power(op.theta, k, x.truncation), x)
    if op.kind is OperatorKind.CHECK:
        return check_apply(conv_power(op.beta, k, x.truncation), x)
    for _ in range(k):
        x = toeplitz_apply(op.theta, op.beta, x)
    return x


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
    assert toeplitz_matrix(delta_symbol(), zero_symbol(), 3).tolist() == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert toeplitz_matrix(finite_symbol([0, 1]), finite_symbol([0, 1]), 2).tolist() \
        == [[0, 1], [1, 0]]
    assert toeplitz_matrix(finite_symbol([1, 2]), finite_symbol([0, 3]), 2).tolist() \
        == [[1, 3], [2, 1]]


@pytest.mark.parametrize("theta, beta", [
    (finite_symbol([Fraction(1, 3), -0.0, 2.5]), finite_symbol([Fraction(1, 3), -0.0])),
    (finite_symbol([-0.0, 1e-300, -7.0]), zero_symbol()),
    (zero_symbol(), finite_symbol([0.5, -0.0, 0.25])),
    (finite_symbol([0.5j, complex(-0.0, -0.0), 0.25]), finite_symbol([-0.0, 1 - 2j])),
    (geometric_symbol(Fraction(3, 4), Fraction(1, 3)), geometric_symbol(0.5, 0.9)),
], ids=["exact-diagonal", "hat", "check", "complex", "geometric"])
def test_toeplitz_matrix_matches_per_diagonal_sum(theta, beta):
    """Entry by entry, the sum of one diagonal's value onto a zero matrix, bit
    for bit: the sign of a zero coefficient does not survive."""
    N = 5
    th, be = prefix(theta, N), prefix(beta, N)
    dtype = complex if any(isinstance(v, complex) for v in th + be) else float
    want = np.zeros((N, N), dtype=dtype)
    for i in range(N):
        for j in range(N):
            v = th[i - j] if i > j else be[j - i] if j > i else th[0] + be[0]
            want[i, j] += dtype(v)
    got = toeplitz_matrix(theta, beta, N)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_toeplitz_matrix_names_a_coefficient_that_overflows_a_float():
    """beta_i = (3/2)^i passes the largest float at i = 1751."""
    with pytest.raises(ValueError, match=r"^coefficient beta_1751 overflows a float$"):
        toeplitz_matrix(finite_symbol([Fraction(1, 2)]),
                        geometric_symbol(1, Fraction(3, 2)), 1800)


def test_toeplitz_matrix_names_a_float_law_coefficient_that_overflows():
    """A float law computes c * r**i in floats, and 1.5**1751 overflows."""
    with pytest.raises(ValueError, match=r"^coefficient beta_1751 overflows a float$"):
        toeplitz_matrix(finite_symbol([Fraction(1, 2)]), geometric_symbol(1.0, 1.5), 1800)
    with pytest.raises(ValueError, match=r"^coefficient theta_1751 overflows a float$"):
        toeplitz_matrix(geometric_symbol(1.0, 1.5), zero_symbol(), 1800)


def test_matrix_csv_prints_a_negative_zero_coefficient_as_zero():
    M = toeplitz_matrix(finite_symbol([1.0, -0.0]), finite_symbol([0.0, -0.0]), 2)
    assert matrix_csv(M) == "1,0\n0,1\n"


def compose_hat(phi, theta, N):
    """Symbol of the composition of two forward operators: phi * theta (the
    operators commute)."""
    return convolve(phi, theta, N)


def compose_check(beta, psi, N):
    """Symbol of the composition of two dual operators (beta applied after
    psi): psi * beta (the operators commute)."""
    return convolve(psi, beta, N)


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
    half = finite_symbol([Fraction(1, 2)])
    grow = sampled_symbol([1.0, 3.0, 9.0], ExponentialEnvelope(1.0, 1, 1))
    with pytest.raises(OperatorContractError):
        make_hat_operator(fin, geometric_symbol(1, 2))  # not a member
    with pytest.raises(OperatorContractError):
        make_check_operator(fin, grow)  # growth envelope violates the dual
    with pytest.raises(OperatorContractError, match="nuclear"):
        make_check_operator(finite_type_space(log_alpha()), half)
    with pytest.raises(OperatorContractError, match="theta is not a member"):
        make_toeplitz_operator(fin, geometric_symbol(1, 2), half)
    with pytest.raises(OperatorContractError, match="dual membership certificate"):
        make_toeplitz_operator(fin, half, grow)
    # what passes the checks is a plain value of kind, space and symbols
    assert [f.name for f in fields(OperatorSpec)] == ["kind", "space", "theta", "beta"]
    assert make_toeplitz_operator(fin, half, half) == \
        OperatorSpec(OperatorKind.TOEPLITZ, fin, theta=half, beta=half)


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


def test_check_apply_finite_beta_tail_takes_no_negative_power(fin):
    """On an input tail cx rx^n with rx < 1 a finite beta gives
    |(beta star x)_n| <= cx * l1 * rx^n: no rx^{-(support - 1)} factor, so a
    long support against a small ratio neither overflows nor loosens."""
    beta = finite_symbol([Fraction(1, 4)] * 200)
    x = Element((0.5,) * 8, GeometricEnvelope(1.0, 0.001), fin)
    assert check_apply(beta, x).tail == GeometricEnvelope(50.0, 0.001)
    x = Element(tuple(0.5 ** n for n in range(1, 9)), GeometricEnvelope(1.0, 0.5), fin)
    assert check_apply(finite_symbol([1] * 8), x).tail == GeometricEnvelope(8.0, 0.5)


def test_check_apply_geometric_beta_against_a_far_truncation(fin):
    """The truncation error of a geometric beta is
    cx cb / (1 - t) * max(rx t^N, rb rx^(N+1)) with t = rx rb, which takes
    no negative power of rb: a small ratio at N = 300 stays finite."""
    N = 300
    x = Element(tuple(0.5 ** n for n in range(1, N + 1)), GeometricEnvelope(1.0, 0.5), fin)
    got = check_apply(geometric_symbol(1, Fraction(1, 100)), x)
    t = 0.5 / 100
    assert got.tail == GeometricEnvelope(1.0 / (1.0 - t), 0.5)
    assert got.residual == max(0.5 * t ** N, 0.01 * 0.5 ** (N + 1)) / (1.0 - t)


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


@pytest.mark.parametrize("space_type", ["finite", "infinite"])
def test_column_norms_on_a_root_alpha_match_direct_sums(space_type):
    """The per-n branches for non-linear alpha against plain weighted sums."""
    alpha = root_alpha(2)
    space = finite_type_space(alpha) if space_type == "finite" else infinite_type_space(alpha)
    s = finite_symbol([Fraction(1, 2), Fraction(-1, 4), 0, Fraction(1, 8)])
    mags = [abs(float(v)) for v in prefix(s, 4)]
    n_max = 12
    for p in (1, 3):
        def w(j):
            a = alpha.value(j)
            return math.exp(-a / p) if space_type == "finite" else math.exp(p * a)
        hat = [math.log(math.fsum(m * w(n + i) for i, m in enumerate(mags)))
               for n in range(1, n_max + 1)]
        check = [math.log(math.fsum(mags[n - j] * w(j) for j in range(1, n + 1)
                                    if n - j < len(mags)))
                 for n in range(1, n_max + 1)]
        np.testing.assert_allclose(hat_column_log_norms(space, s, p, n_max), hat,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(check_column_log_norms(space, s, p, n_max), check,
                                   rtol=0, atol=1e-14)


# repr of hat_column_log_norms(space, s, 2, 4) and of symbol_log_norm_bounds
# (space, s, 3) on non-linear alpha, recorded before both were written with
# one weighted-norm helper: the per-n sums and their geometric tails
NORM_ALPHAS = {"root": root_alpha(2), "log": log_alpha(),
               "explicit": explicit_alpha([1, 2.5, 3, 4.25, 6, 7, 9.5, 11])}
NORM_SYMBOLS = {
    "finite": finite_symbol([Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 4)]),
    "geometric": geometric_symbol(Fraction(-3, 2), Fraction(1, 5)),
    "sampled": sampled_symbol([0.75, -0.5, 0.25j, 0.125], GeometricEnvelope(1.0, 0.5)),
}
HAT_NORM_PINS = {
    ('root', 'finite', 'finite'): '-0.0752939008585104 -0.22891845622712215 -0.35635026341725873 -0.4686062762285501',
    ('root', 'finite', 'geometric'): '0.08464373499099483 -0.11356083161206866 -0.26759147252686016 -0.39833141366460517',
    ('root', 'finite', 'sampled'): '-0.11267888072738955 -0.2881145515973041 -0.4289993952205092 -0.5507551150042671',
    ('root', 'infinite', 'finite'): '4.351333187778075 4.856224996017301 5.307595502522527 5.7195979207574625',
    ('root', 'infinite', 'geometric'): '2.946167276513335 3.682481498245765 4.274324171904631 4.7837167825654054',
    ('root', 'infinite', 'sampled'): '3.9553871603203614 4.449077210314703 4.900340274926299 5.316501137627762',
    ('log', 'finite', 'finite'): '0.09986386393660274 -0.034951587935011186 -0.13750867466489325 -0.22110650315692892',
    ('log', 'finite', 'geometric'): '0.23936203009037887 0.04771953960741397 -0.08965879333339698 -0.19698235163036906',
    ('log', 'finite', 'sampled'): '0.04968305706970615 -0.11306490035580619 -0.23305677116922446 -0.32866199527534196',
    ('log', 'infinite', 'finite'): '3.590439381300684 4.0042982815373165 4.351352627489067 4.6491870714048655',
    ('log', 'infinite', 'geometric'): '2.310378293377509 3.0150804535238964 3.5396026807630814 3.9563407936697668',
    ('log', 'infinite', 'sampled'): '3.0758585897723694 3.5359382141879285 3.9223419222318316 4.251744565570188',
    ('explicit', 'finite', 'finite'): '-0.6013739043347721 -1.2734552458491666 -1.665358745940146 -2.4403908351551165',
    ('explicit', 'finite', 'geometric'): '0.01064913737283887 -0.6841134459130263 -0.983772407746666 -1.6295717620584336',
    ('explicit', 'finite', 'sampled'): '-0.3929160215550463 -1.0043026740081533 -1.4090840601235068 -2.0906245222099846',
    ('explicit', 'infinite', 'finite'): '8.73176033126119 12.224168778955372 14.224366793616277 19.223397702119044',
}
SYMBOL_NORM_PINS = {
    ('root', 'finite', 'finite'): '0.18903127895880673 0.18903127895880673',
    ('root', 'finite', 'geometric'): '0.2648830848157149 0.2648830848157149',
    ('root', 'finite', 'sampled'): '0.05257739227172065 0.10733288491045756',
    ('root', 'infinite', 'finite'): '6.286976919743315 6.286976919743315',
    ('root', 'infinite', 'geometric'): '4.245644754036958 4.245644754036958',
    ('root', 'infinite', 'sampled'): '4.979711867908009 7.038195620201845',
    ('log', 'finite', 'finite'): '0.30673082913597133 0.30673082913597133',
    ('log', 'finite', 'geometric'): '0.3681131841787072 0.3681131841787072',
    ('log', 'finite', 'sampled'): '0.15917797010529655 0.21618882910021955',
    ('log', 'infinite', 'finite'): '5.131376911792384 5.131376911792384',
    ('log', 'infinite', 'geometric'): '3.265431351236216 3.265431351236216',
    ('log', 'infinite', 'sampled'): '3.9342736143629655 4.759204486651904',
    ('explicit', 'finite', 'finite'): '-0.21532039703563388 -0.21532039703563388',
    ('explicit', 'finite', 'geometric'): '0.20744940659701266 0.20744940659701266',
    ('explicit', 'finite', 'sampled'): '-0.13126814791756736 -0.11216193494892968',
    ('explicit', 'infinite', 'finite'): '12.97456519640306 12.97456519640306',
    ('explicit', 'infinite', 'geometric'): '22.406168185071742 22.406168185071742',
}


@pytest.mark.parametrize("alpha", sorted(NORM_ALPHAS))
@pytest.mark.parametrize("space_type", ["finite", "infinite"])
@pytest.mark.parametrize("symbol", sorted(NORM_SYMBOLS))
def test_weighted_norms_on_non_linear_alpha_keep_their_bits(alpha, space_type, symbol):
    make = finite_type_space if space_type == "finite" else infinite_type_space
    space, s, key = make(NORM_ALPHAS[alpha]), NORM_SYMBOLS[symbol], (alpha, space_type, symbol)

    def pinned(values):
        return " ".join(repr(float(v)) for v in values)

    if key in HAT_NORM_PINS:
        assert pinned(hat_column_log_norms(space, s, 2, 4)) == HAT_NORM_PINS[key]
    else:   # a tail that cannot beat the explicit alpha's held increments
        with pytest.raises(TailUnbounded):
            hat_column_log_norms(space, s, 2, 4)
    if key in SYMBOL_NORM_PINS:
        assert pinned(symbol_log_norm_bounds(space, s, 3)) == SYMBOL_NORM_PINS[key]
    else:
        with pytest.raises(TailUnbounded):
            symbol_log_norm_bounds(space, s, 3)


@pytest.mark.parametrize("space", [finite_type_space(), infinite_type_space(),
                                   finite_type_space(root_alpha(2)),
                                   infinite_type_space(root_alpha(2))],
                         ids=["fin", "inf", "fin-root", "inf-root"])
def test_ratio_zero_envelope_reads_as_finite_support(space):
    """An envelope of ratio 0 certifies zeros past index 0, as a finite list does."""
    s = sampled_symbol([Fraction(3, 2), 0], GeometricEnvelope(2.0, 0.0))
    assert s.bounded_support() == 1 and prefix(s, 5) == [Fraction(3, 2), 0, 0, 0, 0]
    f = finite_symbol([Fraction(3, 2)])
    for kernel in (hat_column_log_norms, check_column_log_norms):
        assert kernel(space, s, 2, 12).tobytes() == kernel(space, f, 2, 12).tobytes()


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


def test_power_bound_sweep_slack_at_the_acceptance_shape_is_pinned(fin):
    """n <= 256, p <= 8, k <= 32: the geometric powers are cut at the 2312
    window, and their far terms lie more than 746 below the row maximum
    (the terms the row sums drop).  Recorded before the sweep read the
    powers as rows."""
    from psop.verification import sweep_hat_power_bound

    theta = geometric_symbol(Fraction(3, 2), Fraction(1, 8))
    out = sweep_hat_power_bound(fin, [theta], "pinned", n_max=256, p_max=8, k_max=32,
                                corrected=True)
    assert repr(out.min_slack) == "0.00802879172460963"
    assert out.passed and out.detail == {"argmin": {"p": 8, "k": 1, "symbol": 0}}


# repr(min_slack) and argmin at the acceptance shape (n 256, p 8, k 32),
# corrected and literal, recorded before the sweep summed fewer columns and
# exponentials; the powers are cut at 2312 columns
ACCEPTANCE_SLACKS = [
    (geometric_symbol(Fraction(-3, 2), Fraction(7, 8)),
     "0.24667503537066393", "-3.721082529972861"),
    (geometric_symbol(Fraction(5, 4), Fraction(1, 2)),
     "0.05227435003045211", "-10.441326083405958"),
    (geometric_symbol(1, Fraction(-3, 4)),
     "0.1349560627173496", "-6.413813433790693"),
    (geometric_symbol(complex(1, -0.5), Fraction(5, 8)),
     "0.08264852598366412", "-8.61075858282233"),
]


@pytest.mark.parametrize("theta,corrected_slack,literal_slack", ACCEPTANCE_SLACKS,
                         ids=["-3/2,7/8", "5/4,1/2", "1,-3/4", "1-0.5j,5/8"])
@pytest.mark.parametrize("corrected", [True, False], ids=["corrected", "literal"])
def test_power_bound_sweep_slacks_at_the_acceptance_shape_are_pinned(
        fin, theta, corrected_slack, literal_slack, corrected):
    from psop.verification import sweep_hat_power_bound

    out = sweep_hat_power_bound(fin, [theta], "pinned", n_max=256, p_max=8, k_max=32,
                                corrected=corrected)
    assert repr(out.min_slack) == (corrected_slack if corrected else literal_slack)
    argmin = {"p": 8, "k": 1} if corrected else {"p": 1, "k": 32}
    assert out.passed is corrected and out.detail == {"argmin": dict(argmin, symbol=0)}


def _full_row_log_sum(top, shifted, unseen=0.0):
    """Each row summed whole, every term from -746 below its maximum up."""
    kept = shifted[~(shifted < -746.0)].tolist()
    return top + math.log(math.fsum(map(math.exp, kept)))


# the hat shapes of the benchmark's sweep workload: (space, thetas, k_max, corrected)
F = Fraction
BENCH_HAT_SHAPES = [
    ("finite", [geometric_symbol(F(3, 2), F(5, 8)), finite_symbol([F(1, 2), -3, F(5, 8), 2])],
     1, False),
    ("finite", [geometric_symbol(-2, F(7, 8)), finite_symbol([1, F(-7, 4), 0, F(3, 8)] * 2)],
     1, False),
    ("finite", [geometric_symbol(F(7, 4), F(1, 2)), finite_symbol([F(-1, 8), 6])], 32, True),
    ("finite", [geometric_symbol(-5, F(3, 4)), finite_symbol([2, F(1, 2), -1, F(3, 4)])],
     32, True),
    ("finite", [geometric_symbol(F(1, 4), F(7, 8)), finite_symbol([F(5, 2), -1, 0, 1] * 2)],
     32, True),
    ("infinite", [finite_symbol([F(1, 2), -1, F(3, 4)]), finite_symbol([1, 0, F(-1, 4)] * 2)],
     1, False),
    ("infinite", [finite_symbol([F(3, 2), -2]), finite_symbol([F(1, 4), 1, 0, -1, 2, F(1, 2)])],
     32, False),
    ("finite", [delta_symbol()], 32, True),
]


def test_hat_sweeps_at_the_benchmark_shapes_keep_the_full_row_sums(fin, inf, monkeypatch):
    """Every row sum the sweep takes, and its outcome, bit for bit against
    the sweep on whole 2312-column rows, each summed term by term."""
    from psop import numerics, verification

    real = verification.forward_log_sums

    def run():
        sums = []

        def record(*args, **kwargs):
            out = real(*args, **kwargs)
            if out is not None:
                sums.append(out.tobytes())
            return out

        monkeypatch.setattr(verification, "forward_log_sums", record)
        outcomes = []
        for space_type, thetas, k_max, corrected in BENCH_HAT_SHAPES:
            space = fin if space_type == "finite" else inf
            out = verification.sweep_hat_power_bound(space, thetas, "x", 256, 8, k_max,
                                                     corrected=corrected)
            outcomes.append((out.passed, repr(out.min_slack), out.detail))
        return outcomes, sums

    got = run()
    monkeypatch.setattr(numerics, "_shifted_log_sum", _full_row_log_sum)
    monkeypatch.setattr(verification, "_seen_columns", lambda base, K, P, L: (L, None))
    want = run()
    assert got == want


def test_hat_sweep_sums_whole_rows_where_its_columns_do_not_settle(fin, monkeypatch):
    """With too few columns for their unseen mass, the sums are not settled
    and the sweep builds the rows on the whole window: same outcome."""
    from psop import verification

    theta = geometric_symbol(Fraction(-3, 2), Fraction(7, 8))
    want = verification.sweep_hat_power_bound(fin, [theta], "x", 256, 8, 32, corrected=True)
    real_seen, real_sums = verification._seen_columns, verification.forward_log_sums
    unsettled = []

    def sums(*args, **kwargs):
        out = real_sums(*args, **kwargs)
        unsettled.append(out is None)
        return out

    monkeypatch.setattr(verification, "_seen_columns",
                        lambda *args: (40, real_seen(*args)[1]))
    monkeypatch.setattr(verification, "forward_log_sums", sums)
    got = verification.sweep_hat_power_bound(fin, [theta], "x", 256, 8, 32, corrected=True)
    assert unsettled[0] and not any(unsettled[1:])
    assert (got.passed, repr(got.min_slack), got.detail) == \
        (want.passed, repr(want.min_slack), want.detail)


def test_power_bound_sweep_of_the_zero_symbol_is_vacuous(fin):
    """Zero columns hold with slack +inf, without a NaN from -inf - (-inf)
    (tier-1 turns numpy's RuntimeWarning into an error)."""
    from psop.verification import sweep_hat_power_bound

    out = sweep_hat_power_bound(fin, [finite_symbol([0])], "x", 32, 3, 4)
    assert out.passed and out.min_slack == math.inf


def test_power_bound_sweep_fails_on_a_nan_cell(fin, monkeypatch):
    """One NaN cell, in the second symbol's first power, fails the sweep
    (min() over the per-symbol slacks would keep the first symbol's)."""
    from psop import verification
    from psop.symbols import SymbolKind

    real = verification.hat_column_log_norms

    def one_nan(space, s, p, n_max):
        out = real(space, s, p, n_max).copy()
        if p == 2 and s.kind is SymbolKind.GEOMETRIC:
            out[3] = math.nan
        return out

    monkeypatch.setattr(verification, "hat_column_log_norms", one_nan)
    out = verification.sweep_hat_power_bound(fin, [FIN_3, GEO_7_8], "x", 32, 3, 4,
                                             corrected=True)
    assert not out.passed and math.isnan(out.min_slack)
    assert out.detail["argmin"] == {"p": 2, "k": 1, "symbol": 1}


# -- check_apply's exact kernel against the scalar definition it replaced ----


def _check_apply_scalar(beta, xs):
    """Entry n is sum(x_j * beta_{j-n}) over its terms, the int 0 past the
    support of x: the per-entry Fraction loop check_apply's exact branch ran
    before its integer correlation."""
    S = trimmed_len(xs)
    bs = prefix(beta, S) if S else []
    out = []
    for n in range(1, len(xs) + 1):
        terms = [xs[j - 1] * bs[j - n] for j in range(n, S + 1)]
        out.append(sum(terms) if terms else 0)
    return tuple(out)


def _typed(values):
    return [(type(v), v) for v in values]


CHECK_APPLY_CASES = {
    "all_int": ([2, -1, 3], (1, 0, -4, 5, 0, 0)),
    "mixed": ([F(1, 2), 3, F(-2, 3)], (4, F(1, 3), 0, -2, F(5, 7), 1)),
    # the types differ entry by entry: only entry 1 has a Fraction factor,
    # and only entries 3 and 4 avoid beta's Fraction at index 2
    "mixed_by_entry": ([1, 1, F(1, 2)], (F(1, 2), 1, 2, 3)),
    "fraction_zero_factor": ([1, F(0)], (2, 3, 0)),
    "trailing_zeros": ([F(1, 4), -2, 0, 0], (F(3, 2), -1, 2, 0, 0, 0, 0)),
    "n_above_both_supports": ([F(1, 3), 2], (1, F(-1, 5), 0, 4, F(2, 3), 0, 0, 0, 0, 0, 0, 0)),
    "beta_longer_than_x": ([1, F(1, 2), F(1, 4), F(1, 8), F(1, 16), 3, 5], (F(2, 3), 1)),
    "zero_x": ([F(1, 2)], (0, 0, 0)),
    "zero_beta": ([], (1, F(1, 2), 3)),
}


@pytest.mark.parametrize("name", sorted(CHECK_APPLY_CASES))
def test_check_apply_exact_kernel_matches_scalar_definition(name):
    beta_vals, xs = CHECK_APPLY_CASES[name]
    beta = finite_symbol(beta_vals)
    got = check_apply(beta, Element(xs)).values
    assert _typed(got) == _typed(_check_apply_scalar(beta, xs))


def test_check_apply_exact_kernel_matches_scalar_definition_random():
    rng = random.Random(7)

    def entry():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.6:
            return rng.randint(-5, 5)
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 8)))

    for _ in range(300):
        beta = finite_symbol([entry() for _ in range(rng.randint(0, 9))])
        xs = tuple(entry() for _ in range(rng.randint(1, 14)))
        got = check_apply(beta, Element(xs)).values
        assert _typed(got) == _typed(_check_apply_scalar(beta, xs))


def test_check_apply_empty_element_is_returned():
    x = Element(())
    assert check_apply(finite_symbol([F(1, 2), 3]), x) is x


def test_check_apply_numpy_integers_come_back_as_python_ints():
    # the scalar loop returned numpy integers here, which wrap past 2**63
    xs = tuple(np.int64(v) for v in (3, 0, -2, 5))
    beta = finite_symbol([2, -1])
    got = check_apply(beta, Element(xs)).values
    want = _check_apply_scalar(beta, xs)
    assert list(got) == list(want)
    assert all(type(v) is int for v in got)
    assert [type(v) for v in want] == [np.int64] * 4
    big = check_apply(finite_symbol([4]), Element((np.int64(2 ** 62),))).values
    assert big == (2 ** 64,) and type(big[0]) is int
    # a numpy integer next to a Fraction factor gives a Fraction, as before
    mixed = (np.int64(3), F(1, 2))
    got = check_apply(beta, Element(mixed)).values
    assert _typed(got) == _typed(_check_apply_scalar(beta, mixed))


# repr of check_apply's values, recorded before its two float sums were one
# helper: a finite x with complex, float and exact entries (entry 1 sums
# complex terms, entry 2 floats by fsum, entries 3-5 exactly, entry 6 none),
# and an enveloped x with complex entries
_MIXED_X = Element((-1.25 + 0.5j, 0.3, F(1, 2), 2, F(-2, 3), 0))
_ENVELOPED_X = Element((0.5, -0.25, 0.125j, 0.0625, -0.03125, 0.015625),
                       GeometricEnvelope(1.0, 0.5), infinite_type_space())
CHECK_APPLY_FLOAT_PINS = [
    (finite_symbol([F(1, 3), 2, F(-1, 4)]), _MIXED_X,
     "((0.05833333333333335+0.16666666666666666j), 0.6, Fraction(13, 3), "
     "Fraction(-2, 3), Fraction(-2, 9), 0)"),
    (finite_symbol([0.5, -1.5, 0.25]), _MIXED_X,
     "((-0.95+0.25j), -0.1, -2.9166666666666665, 2.0, -0.3333333333333333, 0)"),
    (geometric_symbol(F(1, 2), F(1, 4)), _ENVELOPED_X,
     "((0.21918487548828125+0.00390625j), (-0.123260498046875+0.015625j), "
     "(0.0069580078125+0.0625j), 0.02783203125, -0.013671875, 0.0078125)"),
    (finite_symbol([1, F(1, 3), -2]), _ENVELOPED_X,
     "((0.4166666666666667-0.25j), (-0.375+0.041666666666666664j), "
     "(0.08333333333333333+0.125j), 0.020833333333333336, -0.026041666666666668, 0.015625)"),
]


@pytest.mark.parametrize("beta, x, want", CHECK_APPLY_FLOAT_PINS,
                         ids=["finite-exact-beta", "finite-float-beta", "enveloped-geometric",
                              "enveloped-finite"])
def test_check_apply_float_sums_keep_their_bits(beta, x, want):
    assert repr(check_apply(beta, x).values) == want


# -- a geometric tail bounds every entry, so steps compose soundly ----------


def _first_escape(short: Element, long: Element):
    """First index past the short run's truncation where the long run's entry
    exceeds the short run's tail (the long run's own residual allowed)."""
    for n in range(short.truncation + 1, long.truncation + 1):
        bound = 0.0 if short.is_finitely_supported else short.tail.at(n)
        if abs(complex(long.values[n - 1])) > bound * (1 + 1e-9) + long.residual + 1e-300:
            return n
    return None


def test_toeplitz_tail_bounds_the_dual_part_of_a_sum():
    theta = geometric_symbol(Fraction(3, 8), Fraction(7, 8))
    beta = finite_symbol([8, Fraction(-1, 2)])
    short, long = e(1, 4), e(1, 90)
    for _ in range(2):
        short = toeplitz_apply(theta, beta, short)
        long = toeplitz_apply(theta, beta, long)
    assert float(long.values[4]) == pytest.approx(3.833078, rel=1e-6)
    assert short.tail.at(5) >= float(long.values[4])
    assert _first_escape(short, long) is None


def test_add_elements_folds_a_finite_summand_into_the_envelope(fin):
    x = element_from_symbol(geometric_symbol(1, Fraction(1, 2)), 4, fin)
    y = Element((0, 0, 5, 0))
    for total in (add_elements(x, y), add_elements(y, x)):
        assert all(abs(v) <= total.tail.at(n) for n, v in enumerate(total.values, 1))
    assert add_elements(x, Element((0, 0, 0, 0))).tail == x.tail


STEPS = {
    "hat": lambda theta, beta, x: hat_apply(theta, x),
    "check": lambda theta, beta, x: check_apply(beta, x),
    "toeplitz": toeplitz_apply,
}


def test_short_run_tails_bound_the_long_run():
    """Seeded hat, check and Toeplitz steps from basis, finite and
    symbol-embedded starts: each entry past N of an N = 90 run stays under
    the tail of the run truncated at N."""
    rng = random.Random(1)

    def frac(num_hi, den):
        return Fraction(rng.randint(-num_hi, num_hi), den)

    compared = 0
    for _ in range(200):
        theta = geometric_symbol(Fraction(rng.randint(1, 8), 8), Fraction(rng.randint(1, 7), 8))
        if rng.random() < 0.5:
            beta = finite_symbol([frac(8, 4) for _ in range(rng.randint(1, 3))])
        else:
            beta = geometric_symbol(frac(8, 8), Fraction(rng.randint(1, 7), 8))
        start = rng.choice(["basis", "finite", "symbol"])
        n0 = rng.randint(1, 3)
        vals = [frac(4, 4) for _ in range(3)]
        embedded = geometric_symbol(frac(8, 8) or 1, Fraction(rng.randint(1, 7), 8))
        N = rng.randint(4, 8)

        def make(M):
            if start == "basis":
                return e(n0, M)
            if start == "finite":
                return Element(tuple(vals) + (0,) * (M - 3))
            return element_from_symbol(embedded, M)

        short, long = make(N), make(90)
        for _ in range(rng.randint(1, 4)):
            step = STEPS[rng.choice(list(STEPS))]
            try:
                short = step(theta, beta, short)
            except TailUnbounded:
                break
            long = step(theta, beta, long)
            assert _first_escape(short, long) is None, (theta, beta, start, N)
            compared += 1
    assert compared > 300
