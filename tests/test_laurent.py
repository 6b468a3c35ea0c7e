import cmath
import math

import numpy as np
import pytest

from psop import (
    AliasRisk,
    CertificateFitFailed,
    PoleOnContour,
    blackbox_symbol,
    finite_type_space,
    infinite_type_space,
    laurent_coeffs,
    make_toeplitz_operator,
    rational_symbol,
    symbol_split,
    toeplitz_from_function,
    toeplitz_matrix,
)
from psop.laurent import _circle_samples, choose_samples, fit_geometric_envelope
from psop.symbols import coeff, prefix


def entire(num, den):
    return rational_symbol(num, den, 0.0, math.inf, "entire")


def test_monomial_coefficients():
    F = entire([0, 0, 0, 1], [1])  # z^3
    co = laurent_coeffs(F, 1.0, -5, 5, 64)
    for n in range(-5, 6):
        want = 1.0 if n == 3 else 0.0
        assert abs(co.coeff(n) - want) <= 1e-13


def test_reciprocal_z():
    F = entire([1], [0, 1])  # 1/z
    co = laurent_coeffs(F, 0.5, -4, 4, 64)
    assert abs(co.coeff(-1) - 1) <= 1e-13
    others = max(abs(co.coeff(n)) for n in range(-4, 5) if n != -1)
    assert others <= 1e-13


def test_geometric_pole_coefficients():
    F = rational_symbol([1], [2, -1], 0.0, 2.0, "disc")  # 1/(2-z)
    co = laurent_coeffs(F, 0.9, -20, 20, 512)
    for n in range(0, 21):
        assert abs(co.coeff(n) - 2.0 ** (-n - 1)) <= 1e-10
    for n in range(1, 21):
        assert abs(co.coeff(-n)) <= 1e-12


def test_radius_independence():
    F = rational_symbol([1], [2, -1], 0.0, 2.0, "disc")
    a = laurent_coeffs(F, 0.9, -16, 16, 512)
    b = laurent_coeffs(F, 0.5, -16, 16, 512)
    for n in range(-16, 17):
        assert abs(a.coeff(n) - b.coeff(n)) <= a.error(n) + b.error(n)


def test_pole_on_contour():
    with pytest.raises(ValueError):
        # pole modulus 1 inside the declared annulus is rejected up front
        rational_symbol([1], [1, -1], 0.5, 2.0, "entire")
    with pytest.raises(PoleOnContour):
        laurent_coeffs(rational_symbol([1], [1, -1], 0.0, 1.0, "disc"),
                       1.0 - 1e-12, -4, 4, 64)


def test_alias_guard_warning():
    F = entire([1], [0, 1])
    with pytest.warns(AliasRisk):
        laurent_coeffs(F, 0.5, -20, 20, 32)
    assert choose_samples(-16, 16) == 256  # next power of two above 4*33


def test_symbol_split_examples():
    F = entire([1], [1])  # constant 1: a_0 = 1 only
    theta, beta = symbol_split(laurent_coeffs(F, 1.0, -4, 4, 64))
    assert prefix(theta, 2) == [1.0, 0] and beta.is_zero
    G = entire([0, 1, 0, 1], [0, 0, 1])  # (z + z^3)/z^2 = z^{-1} + z
    theta, beta = symbol_split(laurent_coeffs(G, 1.0, -4, 4, 64))
    assert abs(coeff(theta, 1) - 1) <= 1e-13 and abs(coeff(theta, 0)) <= 1e-13
    assert abs(coeff(beta, 1) - 1) <= 1e-13 and coeff(beta, 0) == 0


def test_split_reassembly_matches_coefficients():
    F = rational_symbol([1, 2], [2, -1], 0.0, 2.0, "disc")  # (1+2z)/(2-z)
    co = laurent_coeffs(F, 0.9, -8, 8, 256)
    theta, beta = symbol_split(co)
    M = toeplitz_matrix(theta, beta, 6)
    for i in range(6):
        for j in range(6):
            want = co.coeff(i - j)
            assert abs(M[i, j] - want) <= 10 * max(co.errors) + 1e-12


def test_envelope_fit_dominates():
    pts = [(i, 2.0 ** (-i - 1)) for i in range(16)]
    env = fit_geometric_envelope(pts, 1e-14)
    for i, v in pts:
        assert v <= env.at(i) * (1 + 1e-9)
    assert env.ratio < 0.6  # rate stays close to the true 1/2


def test_toeplitz_from_function_disc():
    F = rational_symbol([1], [2, -1], 0.0, 2.0, "disc")
    space = finite_type_space()
    rep = toeplitz_from_function(F, space, 0.9)
    assert rep.operator == make_toeplitz_operator(space, rep.theta, rep.beta)
    assert rep.verdicts["m_topologizable"].status.value == "holds"
    assert rep.beta.is_zero
    # backward weighted sum reduces to |a_0| e
    assert rep.backward_sum == pytest.approx(0.5 * math.e, rel=1e-9)


def test_toeplitz_from_function_entire_exponential():
    F = blackbox_symbol(lambda z: cmath.exp(1.0 / z), 0.0, math.inf, "entire")
    space = infinite_type_space()
    rep = toeplitz_from_function(F, space, 1.0)
    assert rep.operator == make_toeplitz_operator(space, rep.theta, rep.beta)
    assert abs(rep.backward_sum - math.e) <= 1e-8
    assert rep.verdicts["m_topologizable"].status.value == "holds"


def test_certificate_fit_failed_for_wrong_space():
    # trusted-black-box lie: 1/(2-z) is not entire-compatible on the forward side
    F = blackbox_symbol(lambda z: 1.0 / (2.0 - z), 0.0, 1.9, "entire")
    with pytest.raises(CertificateFitFailed):
        toeplitz_from_function(F, infinite_type_space(), 1.0)


def test_space_consistency_checked():
    F = rational_symbol([1], [2, -1], 0.0, 2.0, "disc")
    with pytest.raises(ValueError):
        toeplitz_from_function(F, infinite_type_space(), 0.9)


def test_coefficient_csv_shape():
    F = entire([1], [0, 1])
    co = laurent_coeffs(F, 0.5, -2, 2, 64)
    lines = co.to_csv().strip().splitlines()
    assert lines[0] == "n,re,im,err"
    assert len(lines) == 6


def _horner_from_complex_zeros(coeffs, z):
    """The array Horner loop the circle samples used before they shared the
    scalar one, which starts from the int 0."""
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@pytest.mark.parametrize("num, den", [
    ((-1.5, 0.25 - 2j, 0, -3j, 1), (2, -0.5 + 0.5j, 0.125j)),
    ((-3, 0, -1), (4, -1)),
    ((-0.0,), (1, -0.25j)),
    ((0.0, -0.0), (-2.0, 0.5)),
    ((-0.0, 0.0, -0.0), (-1, 0.0, 0.1j)),
], ids=["complex", "int", "negative-zero", "signed-zeros", "zero-over-complex"])
def test_circle_samples_keep_their_bits(num, den):
    """The samples of a rational symbol equal, bit for bit and signs of zero
    included, num / den from the loop that started at complex zeros; and
    F.evaluate within rounding (Python's complex arithmetic is not numpy's
    in the last bit)."""
    F = rational_symbol(num, den, 0.0, 2.0, "disc")
    for r, M in ((0.5, 8), (0.9, 64), (1.7, 32)):
        z = r * np.exp(1j * (2.0 * math.pi * np.arange(M) / M))
        got = _circle_samples(F, r, M)
        want = _horner_from_complex_zeros(num, z) / _horner_from_complex_zeros(den, z)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, [F.evaluate(complex(w)) for w in z], rtol=1e-14)
