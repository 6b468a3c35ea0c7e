"""Coefficient extraction for Toeplitz symbols given as holomorphic functions.

The two-sided coefficient sequence of a function analytic on an annulus is
read off a circle inside the annulus by the uniform trapezoid rule, which is
spectrally accurate there: with M samples the computed a_n picks up only the
aliases a_{n+kM} r^{kM}, so doubling M gives an honest error estimate.  The
batch of all window coefficients comes out of a single FFT.

Splitting the sequence at the diagonal gives the pair of one-sided symbols
(nonnegative indices forward, negative indices backward) with the backward
constant term set to zero: the diagonal split is not unique and the forward
side keeps a_0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .numerics import fmt17
from .spaces import (
    DualCertificate,
    GeometricEnvelope,
    SpaceSpec,
    finite_type_space,
    geometric_tail_sum,
    infinite_type_space,
)
from .symbols import Symbol, finite_symbol, prefix, sampled_symbol, symbol_envelope, zero_symbol


class PoleOnContour(ValueError):
    """The rational symbol's denominator nearly vanishes on the circle."""


class CertificateFitFailed(ValueError):
    """The computed coefficients do not decay/grow compatibly with the space."""


class AliasRisk(UserWarning):
    """Sample count below the alias guard for the requested window."""


@dataclass(frozen=True)
class RationalRep:
    """num/den coefficient lists, ascending powers."""

    num: tuple
    den: tuple

    def __call__(self, z: complex) -> complex:
        n = _polyval(self.num, z)
        d = _polyval(self.den, z)
        return n / d

    def pole_moduli(self) -> list[float]:
        den = np.trim_zeros(np.asarray(self.den, dtype=complex), "b")
        if len(den) <= 1:
            return []
        return [abs(r) for r in np.roots(den[::-1])]


def _polyval(coeffs: Sequence, z):
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class HoloSymbol:
    """A function holomorphic on the annulus r_inner < |z| < r_outer.

    Rational representations get pole checks against the annulus and the
    quadrature circles; black-box evaluators are trusted on analyticity.
    intended_space routes the membership checks ("entire" pairs with the
    infinite type, "disc" with the finite type).
    """

    rep: Union[RationalRep, Callable[[complex], complex]]
    r_inner: float
    r_outer: float
    intended_space: str  # "entire" | "disc"

    def __post_init__(self):
        if not 0.0 <= self.r_inner < self.r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")
        if self.intended_space not in ("entire", "disc"):
            raise ValueError("intended_space must be 'entire' or 'disc'")
        if isinstance(self.rep, RationalRep):
            for rho in self.rep.pole_moduli():
                if self.r_inner < rho < self.r_outer:
                    raise ValueError(
                        f"pole of modulus {rho:.6g} lies inside the declared annulus")

    def evaluate(self, z: complex) -> complex:
        return self.rep(z)


def rational_symbol(num, den, r_inner: float, r_outer: float,
                    intended_space: str) -> HoloSymbol:
    return HoloSymbol(RationalRep(tuple(num), tuple(den)), r_inner, r_outer,
                      intended_space)


def blackbox_symbol(fn: Callable[[complex], complex], r_inner: float,
                    r_outer: float, intended_space: str) -> HoloSymbol:
    return HoloSymbol(fn, r_inner, r_outer, intended_space)


@dataclass(frozen=True)
class LaurentCoeffs:
    n_min: int
    n_max: int
    values: tuple          # complex a_n for n = n_min..n_max
    errors: tuple          # per-coefficient error estimates
    radius: float
    samples: int

    def coeff(self, n: int) -> complex:
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"coefficient {n} outside window "
                             f"[{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]

    def error(self, n: int) -> float:
        return self.errors[n - self.n_min]

    def to_csv(self) -> str:
        lines = ["n,re,im,err"]
        for n in range(self.n_min, self.n_max + 1):
            a = self.coeff(n)
            lines.append(f"{n},{fmt17(a.real)},{fmt17(a.imag)},{fmt17(self.error(n))}")
        return "\n".join(lines) + "\n"


def _circle_samples(F: HoloSymbol, r: float, M: int) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(M) / M
    z = r * np.exp(1j * ang)
    if isinstance(F.rep, RationalRep):
        num = _polyval(F.rep.num, z)
        den = _polyval(F.rep.den, z)
        scale = 1.0 + float(np.max(np.abs(num)))
        if float(np.min(np.abs(den))) < 1e-9 * scale:
            raise PoleOnContour(f"denominator nearly vanishes on |z| = {r}")
        return num / den
    return np.array([complex(F.evaluate(complex(zz))) for zz in z])


def _dft_window(samples: np.ndarray, r: float, n_min: int, n_max: int) -> np.ndarray:
    M = len(samples)
    hat = np.fft.fft(samples) / M
    out = np.empty(n_max - n_min + 1, dtype=complex)
    for n in range(n_min, n_max + 1):
        out[n - n_min] = hat[n % M] * r ** (-n)
    return out


def choose_samples(n_min: int, n_max: int, M: Optional[int] = None) -> int:
    """Next power of two at or above max(64, 4 * window size) unless forced."""
    if M is not None:
        return M
    need = max(64, 4 * (n_max - n_min + 1))
    return 1 << (need - 1).bit_length()


def laurent_coeffs(F: HoloSymbol, r: float, n_min: int, n_max: int,
                   M: Optional[int] = None) -> LaurentCoeffs:
    """Coefficients a_n ~ (1/M) sum_j F(r w^j) r^{-n} w^{-jn} on the window,
    error estimated by doubling the sample count once."""
    if not F.r_inner < r < F.r_outer:
        raise ValueError(f"radius {r} outside the annulus "
                         f"({F.r_inner}, {F.r_outer})")
    if n_min > n_max:
        raise ValueError("empty window")
    M = choose_samples(n_min, n_max, M)
    width = n_max - n_min + 1
    if M < 2 * width:
        warnings.warn(f"{M} samples for a window of {width} coefficients "
                      f"risks aliasing", AliasRisk, stacklevel=2)
    s1 = _circle_samples(F, r, M)
    s2 = _circle_samples(F, r, 2 * M)
    a1 = _dft_window(s1, r, n_min, n_max)
    a2 = _dft_window(s2, r, n_min, n_max)
    scale = float(np.max(np.abs(s1))) if len(s1) else 0.0
    eps = np.finfo(float).eps
    ns = np.arange(n_min, n_max + 1)
    # rounding floor: FFT noise is eps-level relative to the sample magnitude
    # and the radius power amplifies it on the far side of the window
    floor = 64.0 * eps * scale * np.maximum(r ** (-ns.astype(float)), 1.0)
    errs = np.abs(a1 - a2) + floor
    return LaurentCoeffs(n_min, n_max, tuple(map(complex, a1)),
                         tuple(map(float, errs)), r, M)


# ---------------------------------------------------------------------------
# Symbol split and envelope fitting
# ---------------------------------------------------------------------------


def _realify(values: list[complex], floor: float) -> list:
    if all(abs(v.imag) <= floor for v in values):
        return [v.real for v in values]
    return values


def fit_geometric_envelope(indexed: list[tuple[int, float]],
                           zero_floor: float) -> Optional[GeometricEnvelope]:
    """Least squares on log magnitudes, then inflate: constant doubled, rate
    pushed toward the worst case by half the residual spread, and the scale
    re-raised until the envelope dominates the window."""
    pts = [(i, v) for i, v in indexed if v > zero_floor]
    if not pts:
        return None
    if len(pts) == 1:
        return GeometricEnvelope(2.0 * pts[0][1], 1.0)
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log(np.array([p[1] for p in pts]))
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - (slope * xs + intercept)
    spread = float(resid.max() - resid.min()) if len(pts) > 1 else 0.0
    span = max(float(xs.max() - xs.min()), 1.0)
    slope_inflated = slope + 0.5 * spread / span
    ratio = math.exp(slope_inflated)
    scale = 2.0 * math.exp(intercept)
    # domination on the window is mandatory, not best-effort
    need = max(v / (ratio ** i) for i, v in pts)
    scale = max(scale, need * (1.0 + 1e-12))
    return GeometricEnvelope(scale, ratio)


def symbol_split(coeffs: LaurentCoeffs) -> tuple[Symbol, Symbol]:
    """(forward, backward) symbols: forward_n = a_n for n >= 0 (keeps a_0),
    backward_n = a_{-n} for n >= 1 with backward_0 = 0."""
    if coeffs.n_max < 0 or coeffs.n_min > 0:
        raise ValueError("window must cover the diagonal index 0")
    floor = max(1e-13, 10.0 * max(coeffs.errors))
    fwd = [coeffs.coeff(n) for n in range(0, coeffs.n_max + 1)]
    bwd = [0j] + [coeffs.coeff(-n) for n in range(1, -coeffs.n_min + 1)]
    fwd = [0 if abs(v) <= floor else v for v in fwd]
    bwd = [0 if abs(v) <= floor else v for v in bwd]
    fwd = _realify([complex(v) for v in fwd], floor)
    bwd = _realify([complex(v) for v in bwd], floor)
    theta = _window_symbol(fwd, floor)
    beta = _window_symbol(bwd, floor)
    return theta, beta


def _window_symbol(vals: list, floor: float) -> Symbol:
    trimmed = len(vals)
    while trimmed > 0 and vals[trimmed - 1] == 0:
        trimmed -= 1
    if trimmed == 0:
        return zero_symbol()
    # zeros over the last quarter of the window are read as finite support
    if trimmed <= max(1, int(0.75 * len(vals))):
        return finite_symbol(vals[:trimmed])
    env = fit_geometric_envelope([(i, abs(v)) for i, v in enumerate(vals)], floor)
    return sampled_symbol(vals, envelope=env)


@dataclass(frozen=True)
class FunctionOperatorReport:
    operator: object                 # OperatorSpec
    coeffs: LaurentCoeffs
    theta: Symbol
    beta: Symbol
    membership: object               # MembershipReport for the forward symbol
    dual_certificate: DualCertificate
    backward_sum: float              # sum |a_{-n+1}| (entire) or with e^n (disc)
    backward_sum_tail: float
    verdicts: dict


def space_for(F: HoloSymbol) -> SpaceSpec:
    return infinite_type_space() if F.intended_space == "entire" else finite_type_space()


def toeplitz_from_function(F: HoloSymbol, space: SpaceSpec, r: float,
                           grid=None, window: int = 32) -> FunctionOperatorReport:
    """Quadrature, split, envelope fit, membership checks, and the sufficient
    classification sums, end to end."""
    from .classify import GridParams, classify_operator
    from .operators import OperatorKind, OperatorSpec
    from .spaces import fit_dual_certificate
    from .symbols import membership_check

    grid = grid or GridParams()
    expected = space_for(F)
    if expected.space_type is not space.space_type or not space.is_linear:
        raise ValueError("space inconsistent with the function's intended space")
    coeffs = laurent_coeffs(F, r, -window, window)
    theta, beta = symbol_split(coeffs)
    membership = membership_check(space, theta, N=grid.N)
    if membership.overall == "not_member" or (
            theta.kind.value == "sampled" and not space.is_finite_type):
        raise CertificateFitFailed(
            "forward coefficients do not decay compatibly with the space")
    if membership.overall == "inconclusive":
        raise CertificateFitFailed("forward membership could not be settled")
    cert = fit_dual_certificate(space, beta, N=min(grid.N, 256))
    if cert is None:
        raise CertificateFitFailed(
            "backward coefficients admit no dual membership certificate")
    # the checks above are stricter than make_toeplitz_operator's, and a
    # linear alpha is nuclear, so the hypotheses hold
    op = OperatorSpec(OperatorKind.TOEPLITZ, space, theta=theta, beta=beta)
    # the sufficient sums from the coefficient side: sum over n >= 1 of
    # |a_{-n+1}| (entire case) or |a_{-n+1}| e^n (disc case); the n = 1 term
    # is |a_0|, overlapping the forward constant at the diagonal.  The split
    # symbol's floored entries are used for m >= 1: the exponential weights
    # would otherwise amplify quadrature noise far above the true terms.
    a0 = abs(coeffs.coeff(0))
    total = a0 * (1.0 if not space.is_finite_type else math.e)
    bs = prefix(beta, window + 1)
    for m in range(1, window + 1):
        w = 1.0 if not space.is_finite_type else math.exp(m + 1.0)
        total += abs(bs[m]) * w
    env = symbol_envelope(beta)
    tail = 0.0
    if isinstance(env, GeometricEnvelope):
        # sum_{m > window} env(m) * weight(m), weight = 1 or e^{m+1}
        tail = geometric_tail_sum(env, window + 1, math.e if space.is_finite_type else 1.0)
    verdicts = classify_operator(op, ("strongly_tame", "m_topologizable", "power_bounded"),
                                 grid)
    return FunctionOperatorReport(op, coeffs, theta, beta, membership, cert,
                                  total, tail, verdicts)
