"""Power series spaces: exponent sequences, graded seminorm weights, and
structural certificates (stability, nuclearity, dual membership).

A space is determined by its type (finite or infinite) and a nonnegative
nondecreasing exponent sequence alpha diverging to infinity.  Grade-k
weights are exp(-alpha_n/k) for the finite type and exp(k*alpha_n) for the
infinite type; the grade-k seminorm of a sequence is the weighted absolute
sum.  All weights are handled in log-domain (see numerics) because the
infinite-type weights overflow doubles almost immediately.

Truncated vectors carry tail certificates; every seminorm either returns a
closed-form majorant for the omitted tail or raises TailUnbounded.  The
supported certificate shapes are finite support, geometric envelopes
|x_n| <= c * rho**n, and exponential envelopes tied to alpha (the shape in
which dual-space membership is expressed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .numerics import NEG_INF, exp_guarded, log_abs, logaddexp, sum_exp

if TYPE_CHECKING:  # pragma: no cover
    from .operators import Element


class TailUnbounded(ValueError):
    """The tail certificate cannot bound the weighted tail in this grade."""


# ---------------------------------------------------------------------------
# Exponent sequences
# ---------------------------------------------------------------------------


class AlphaKind(str, Enum):
    LINEAR = "linear"      # alpha_n = n
    ROOT = "root"          # alpha_n = n**(1/d)
    LOG = "log"            # alpha_n = ln(n+1)
    EXPLICIT = "explicit"  # user-supplied prefix with an extension rule


@dataclass(frozen=True)
class ExponentSequence:
    """The sequence alpha with enough structure for analytic certificates.

    Indexing starts at n = 1.  alpha_1 may be 0 (the log kind); ratio-based
    diagnostics skip indices where alpha_n = 0 and record them.
    """

    kind: AlphaKind
    degree: int = 1
    entries: tuple[float, ...] = ()
    extension: Optional[str] = None  # "hold" | "arithmetic" | None

    def __post_init__(self):
        if self.kind is AlphaKind.ROOT and self.degree < 1:
            raise ValueError("root degree must be >= 1")
        if self.kind is AlphaKind.EXPLICIT:
            if not self.entries:
                raise ValueError("explicit exponent sequence needs entries")
            prev = -0.0
            for i, v in enumerate(self.entries):
                if v < 0:
                    raise ValueError(f"alpha_{i+1} = {v} < 0")
                if v < prev:
                    raise ValueError(f"alpha_{i+1} = {v} decreases")
                prev = v
            if self.extension not in (None, "hold", "arithmetic"):
                raise ValueError(f"unknown extension rule {self.extension!r}")

    def value(self, n: int) -> float:
        if n < 1:
            raise ValueError("alpha is indexed from 1")
        if self.kind is AlphaKind.LINEAR:
            return float(n)
        if self.kind is AlphaKind.ROOT:
            return float(n) ** (1.0 / self.degree)
        if self.kind is AlphaKind.LOG:
            return math.log(n + 1.0)
        m = len(self.entries)
        if n <= m:
            return self.entries[n - 1]
        if self.extension == "hold":
            return self.entries[-1]
        if self.extension == "arithmetic":
            step = self.entries[-1] - self.entries[-2] if m >= 2 else 1.0
            return self.entries[-1] + step * (n - m)
        raise IndexError(f"alpha_{n} beyond explicit prefix of length {m} (no extension rule)")

    def block(self, n0: int, n1: int) -> np.ndarray:
        """Vector (alpha_n0, ..., alpha_n1)."""
        if self.kind is AlphaKind.LINEAR:
            return np.arange(n0, n1 + 1, dtype=float)
        if self.kind is AlphaKind.ROOT:
            return np.arange(n0, n1 + 1, dtype=float) ** (1.0 / self.degree)
        if self.kind is AlphaKind.LOG:
            return np.log(np.arange(n0, n1 + 1, dtype=float) + 1.0)
        return np.array([self.value(n) for n in range(n0, n1 + 1)])

    def increment_upper(self, start: int) -> float:
        """Upper bound for alpha_{n+1}-alpha_n over n >= start (inf if unknown)."""
        if self.kind is AlphaKind.LINEAR:
            return 1.0
        if self.kind in (AlphaKind.ROOT, AlphaKind.LOG):
            # increments are nonincreasing
            return self.value(start + 1) - self.value(start)
        m = len(self.entries)
        diffs = [self.entries[n] - self.entries[n - 1] for n in range(max(1, start), m)]
        if self.extension == "hold":
            ext = 0.0
        elif self.extension == "arithmetic":
            ext = self.entries[-1] - self.entries[-2] if m >= 2 else 1.0
        else:
            return math.inf
        return max(diffs + [ext]) if diffs or ext is not None else math.inf

    def increment_lower(self, start: int) -> float:
        """Lower bound for alpha_{n+1}-alpha_n over n >= start."""
        if self.kind is AlphaKind.LINEAR:
            return 1.0
        # root/log increments tend to 0; explicit prefixes give no guarantee
        return 0.0

    def dominated_by_index(self) -> bool:
        """True when alpha_n <= n holds for all n (closed form per kind)."""
        if self.kind in (AlphaKind.LINEAR, AlphaKind.ROOT):
            return True
        if self.kind is AlphaKind.LOG:
            return True  # ln(n+1) <= n for n >= 1
        return all(self.entries[i] <= i + 1 for i in range(len(self.entries))) and \
            self.extension == "hold"

    def describe(self) -> str:
        if self.kind is AlphaKind.LINEAR:
            return "n"
        if self.kind is AlphaKind.ROOT:
            return f"n^(1/{self.degree})"
        if self.kind is AlphaKind.LOG:
            return "ln(n+1)"
        return f"explicit[{len(self.entries)}]"


def linear_alpha() -> ExponentSequence:
    return ExponentSequence(AlphaKind.LINEAR)


def root_alpha(degree: int) -> ExponentSequence:
    return ExponentSequence(AlphaKind.ROOT, degree=degree)


def log_alpha() -> ExponentSequence:
    return ExponentSequence(AlphaKind.LOG)


def explicit_alpha(entries, extension: Optional[str] = "hold") -> ExponentSequence:
    return ExponentSequence(AlphaKind.EXPLICIT, entries=tuple(float(v) for v in entries),
                            extension=extension)


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


class SpaceType(str, Enum):
    FINITE = "finite"      # weights exp(-alpha_n/k)
    INFINITE = "infinite"  # weights exp(k*alpha_n)


@dataclass(frozen=True)
class SpaceSpec:
    space_type: SpaceType
    alpha: ExponentSequence

    @property
    def is_finite_type(self) -> bool:
        return self.space_type is SpaceType.FINITE

    @property
    def is_linear(self) -> bool:
        return self.alpha.kind is AlphaKind.LINEAR

    def log_weight(self, n: int, k: int) -> float:
        if n < 1 or k < 1:
            raise ValueError("weight indices start at 1")
        a = self.alpha.value(n)
        return -a / k if self.is_finite_type else k * a

    def log_weights(self, n0: int, n1: int, k: int) -> np.ndarray:
        a = self.alpha.block(n0, n1)
        return -a / k if self.is_finite_type else k * a

    def describe(self) -> str:
        name = "finite" if self.is_finite_type else "infinite"
        return f"{name}-type power series space over alpha = {self.alpha.describe()}"


def finite_type_space(alpha: Optional[ExponentSequence] = None) -> SpaceSpec:
    return SpaceSpec(SpaceType.FINITE, alpha or linear_alpha())


def infinite_type_space(alpha: Optional[ExponentSequence] = None) -> SpaceSpec:
    return SpaceSpec(SpaceType.INFINITE, alpha or linear_alpha())


def weight(space: SpaceSpec, n: int, k: int) -> float:
    """Grade-k weight at index n.  Saturates to inf rather than overflowing;
    use space.log_weight for large grades."""
    return exp_guarded(space.log_weight(n, k))


# ---------------------------------------------------------------------------
# Tail certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitelySupported:
    """All entries beyond the stored truncation are exactly zero."""


@dataclass(frozen=True)
class GeometricEnvelope:
    """|x_n| <= scale * ratio**n at the container's native index.

    Elements index from 1, symbols from 0; embedding a symbol as an element
    multiplies the scale by 1/ratio (see shift_envelope).
    """

    scale: float
    ratio: float

    def __post_init__(self):
        if self.scale < 0 or self.ratio < 0:
            raise ValueError("envelope parameters must be nonnegative")

    def at(self, n: int) -> float:
        if self.scale == 0.0 or self.ratio == 0.0:
            return self.scale if n == 0 else 0.0
        return exp_guarded(math.log(self.scale) + n * math.log(self.ratio))


@dataclass(frozen=True)
class ExponentialEnvelope:
    """Envelope tied to the exponent sequence, at the element index n >= 1:

    sign = +1: |x_n| <= scale * exp(grade * alpha_n)     (dual of infinite type)
    sign = -1: |x_n| <= scale * exp(-alpha_n / grade)    (dual of finite type)
    """

    scale: float
    grade: int
    sign: int

    def __post_init__(self):
        if self.scale < 0 or self.grade < 1 or self.sign not in (-1, 1):
            raise ValueError("invalid exponential envelope")

    def log_at(self, alpha_n: float) -> float:
        rate = self.grade * alpha_n if self.sign > 0 else -alpha_n / self.grade
        return log_abs(self.scale) + rate if self.scale > 0 else NEG_INF


TailCert = Union[FinitelySupported, GeometricEnvelope, ExponentialEnvelope]

FINITE_TAIL = FinitelySupported()


def shift_envelope(cert: TailCert, offset: int) -> TailCert:
    """Reindex a geometric envelope by i -> i + offset (symbol -> element)."""
    if isinstance(cert, GeometricEnvelope) and cert.ratio > 0:
        return GeometricEnvelope(cert.scale * cert.ratio ** (-offset), cert.ratio)
    if isinstance(cert, GeometricEnvelope):
        return FINITE_TAIL  # ratio 0 certifies a zero tail
    return cert


def geometric_for(space: SpaceSpec, cert: TailCert) -> Optional[GeometricEnvelope]:
    """Rewrite a certificate as a geometric envelope when the space allows it
    (exact on linear alpha, where exp envelopes are geometric)."""
    if isinstance(cert, GeometricEnvelope):
        return cert
    if isinstance(cert, ExponentialEnvelope) and space.is_linear:
        if cert.sign > 0:
            return GeometricEnvelope(cert.scale, math.exp(cert.grade))
        return GeometricEnvelope(cert.scale, math.exp(-1.0 / cert.grade))
    return None


def tail_majorant(space: SpaceSpec, cert: TailCert, start: int, k: int) -> tuple[float, float]:
    """Upper bound on sum_{n>=start} env(n) * a_{n,k}. Returns (value, log_value).

    Raises TailUnbounded when the certificate admits no closed-form majorant
    in this grade (e.g. infinite-type norm of a merely bounded tail).
    """
    if isinstance(cert, FinitelySupported):
        return 0.0, NEG_INF
    geo = geometric_for(space, cert)
    alpha = space.alpha
    if geo is not None:
        c, rho = geo.scale, geo.ratio
        if c == 0.0 or rho == 0.0:
            return 0.0, NEG_INF
        log_c = math.log(c)
        a_start = alpha.value(start)
        if space.is_finite_type:
            # a_{n,k} <= exp(-alpha_start/k) * exp(-dmin*(n-start)/k)
            dmin = alpha.increment_lower(start)
            t = rho * math.exp(-dmin / k)
            if t >= 1.0:
                raise TailUnbounded(
                    f"geometric tail with ratio {rho} diverges against grade-{k} decay")
            log_tail = log_c + start * math.log(rho) - a_start / k - math.log1p(-t)
        else:
            dmax = alpha.increment_upper(start)
            t = rho * math.exp(k * dmax)
            if t >= 1.0:
                raise TailUnbounded(
                    f"geometric tail with ratio {rho} cannot dominate grade-{k} growth")
            log_tail = log_c + start * math.log(rho) + k * a_start - math.log1p(-t)
        return exp_guarded(log_tail), log_tail
    assert isinstance(cert, ExponentialEnvelope)
    if cert.scale == 0.0:
        return 0.0, NEG_INF
    rate = cert.grade if cert.sign > 0 else -1.0 / cert.grade
    gamma = rate + (-1.0 / k if space.is_finite_type else float(k))
    if gamma >= 0.0:
        raise TailUnbounded("exponential envelope does not decay against the weights")
    dmin = alpha.increment_lower(start)
    if dmin <= 0.0:
        raise TailUnbounded("no positive increment bound for this exponent sequence")
    a_start = alpha.value(start)
    log_tail = math.log(cert.scale) + gamma * a_start - math.log1p(-math.exp(gamma * dmin))
    return exp_guarded(log_tail), log_tail


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailedValue:
    """A computed partial value with a rigorous upper bound on the omitted tail."""

    value: float
    log_value: float
    tail: float
    log_tail: float

    @property
    def upper(self) -> float:
        return exp_guarded(self.log_upper)

    @property
    def log_upper(self) -> float:
        return logaddexp(self.log_value, self.log_tail)

    def __repr__(self):
        return f"TailedValue(value={self.value!r}, tail={self.tail!r})"


def seminorm(space: SpaceSpec, x: "Element", k: int) -> TailedValue:
    """Grade-k seminorm of a truncated element: weighted absolute sum over the
    stored prefix plus a certified tail majorant (zero for finite support)."""
    if k < 1:
        raise ValueError("grades start at 1")
    vals = x.values
    n_entries = len(vals)
    if n_entries:
        logw = space.log_weights(1, n_entries, k)
        log_terms = [log_abs(v) + logw[i] for i, v in enumerate(vals) if v != 0]
        value, log_value = sum_exp(log_terms)
    else:
        logw = np.zeros(0)
        value, log_value = 0.0, NEG_INF
    tail, log_tail = tail_majorant(space, x.tail, n_entries + 1, k)
    residual = getattr(x, "residual", 0.0)
    if residual and n_entries:
        # stored entries are only residual-accurate; charge the weighted mass
        _, log_wsum = sum_exp(logw)
        log_tail = logaddexp(log_tail, math.log(residual) + log_wsum)
        tail = exp_guarded(log_tail)
    return TailedValue(value, log_value, tail, log_tail)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityCert:
    """Witness that alpha_{2n} <= bound * alpha_n on the checked prefix, with
    the bound analytic for the built-in kinds."""

    bound: int
    certified: bool
    prefix_sup: float
    skipped: tuple[int, ...] = ()

    def __post_init__(self):
        if self.prefix_sup > self.bound + 1e-12:
            raise ValueError("prefix_sup exceeds the claimed stability bound")


def stability_constant(alpha: ExponentSequence, N: int) -> StabilityCert:
    """Prefix supremum of alpha_{2n}/alpha_n (skipping alpha_n = 0) plus the
    analytic bound when the kind admits one (linear and root: 2)."""
    if N < 2:
        raise ValueError("need N >= 2")
    sup = 0.0
    skipped = []
    for n in range(1, N // 2 + 1):
        a = alpha.value(n)
        if a == 0.0:
            skipped.append(n)
            continue
        sup = max(sup, alpha.value(2 * n) / a)
    if alpha.kind in (AlphaKind.LINEAR, AlphaKind.ROOT):
        return StabilityCert(2, True, sup, tuple(skipped))
    return StabilityCert(max(1, math.ceil(sup - 1e-12)), False, sup, tuple(skipped))


# ---------------------------------------------------------------------------
# Nuclearity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuclearityCert:
    """Nuclearity diagnostic.

    Finite type: nuclear iff ln(n)/alpha_n -> 0; ratio_max reports the prefix
    window max.  Infinite type: nuclear iff sup ln(n)/alpha_n < inf; then m1
    is an integer with sum exp(-m1*alpha_j) < inf and decay_sum an upper bound
    for that sum (partial sum plus analytic tail where available).
    """

    space_type: SpaceType
    nuclear: bool
    certified: bool
    ratio_max: float
    m1: Optional[int] = None
    decay_sum: Optional[float] = None
    partial_sum: Optional[float] = None
    note: str = ""

    def __post_init__(self):
        if self.decay_sum is not None and self.partial_sum is not None:
            if self.decay_sum < self.partial_sum:
                raise ValueError("decay_sum below its own partial sum")


def _log_ratio_window(alpha: ExponentSequence, N: int) -> float:
    lo = max(2, N // 2)
    sup = 0.0
    for n in range(lo, N + 1):
        a = alpha.value(n)
        ln_n = math.log(n)
        if a == 0.0:
            if ln_n > 0:
                return math.inf
            continue
        sup = max(sup, ln_n / a)
    return sup


def nuclearity_check(space: SpaceSpec, N: int = 4096) -> NuclearityCert:
    if N < 2:
        raise ValueError("need N >= 2")
    alpha = space.alpha
    ratio_max = _log_ratio_window(alpha, N)
    if space.is_finite_type:
        if alpha.kind in (AlphaKind.LINEAR, AlphaKind.ROOT):
            return NuclearityCert(space.space_type, True, True, ratio_max,
                                  note="ln(n)/alpha_n -> 0 in closed form")
        if alpha.kind is AlphaKind.LOG:
            return NuclearityCert(space.space_type, False, True, ratio_max,
                                  note="ln(n)/ln(n+1) -> 1, not 0")
        trend_ok = ratio_max < _log_ratio_window(alpha, max(2, N // 2))
        return NuclearityCert(space.space_type, trend_ok, False, ratio_max,
                              note="prefix evidence only")
    # infinite type: certificate (m1, decay_sum)
    if alpha.kind is AlphaKind.LINEAR:
        m1 = 1
        exact = 1.0 / (math.e - 1.0)
        partial = math.fsum(math.exp(-j) for j in range(1, min(N, 64) + 1))
        return NuclearityCert(space.space_type, True, True, ratio_max, m1,
                              exact * (1.0 + 1e-13), partial,
                              note="geometric decay sum in closed form")
    if alpha.kind is AlphaKind.ROOT:
        import mpmath

        m1 = 1
        d = alpha.degree
        partial = math.fsum(math.exp(-alpha.value(j)) for j in range(1, N + 1))
        # integral tail: sum_{j>N} exp(-j^(1/d)) <= d * Gamma(d, N^(1/d))
        tail = float(d * mpmath.gammainc(d, N ** (1.0 / d)))
        return NuclearityCert(space.space_type, True, True, ratio_max, m1,
                              partial + tail, partial, note="integral tail bound")
    if alpha.kind is AlphaKind.LOG:
        m1 = 2
        partial = math.fsum((j + 1.0) ** (-2) for j in range(1, N + 1))
        tail = 1.0 / (N + 1.0)
        return NuclearityCert(space.space_type, True, True, ratio_max, m1,
                              partial + tail, partial, note="zeta-type tail bound")
    nuclear = math.isfinite(ratio_max)
    m1 = None
    partial = None
    if nuclear:
        m1 = max(1, math.ceil(ratio_max + 1.0))
        partial = math.fsum(math.exp(-m1 * alpha.value(j)) for j in range(1, N + 1))
    return NuclearityCert(space.space_type, nuclear, False, ratio_max, m1,
                          partial, partial, note="prefix evidence only")


def decay_compensation_constant(space: SpaceSpec, k: int, n_max: int = 10_000) -> float:
    """D_k = sup_n n * exp(-alpha_n/(2k)) for a nuclear finite-type space.

    For linear alpha the supremum is at n = 2k with value 2k/e; the prefix
    max is returned (and equals the closed form for the linear kind).
    """
    if not space.is_finite_type:
        raise ValueError("decay compensation applies to the finite type")
    n = np.arange(1, n_max + 1, dtype=float)
    a = space.alpha.block(1, n_max)
    vals = np.log(n) - a / (2.0 * k)
    best = float(np.max(vals))
    if space.is_linear:
        best = max(best, math.log(2.0 * k) - 1.0)
    return math.exp(best)


# ---------------------------------------------------------------------------
# Dual membership certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Asserts |beta_{n-1}| <= c0 * exp(m0*alpha_n) (infinite type) or
    |beta_{n-1}| <= c0 * exp(-alpha_n/m0) (finite type) for all n."""

    c0: float
    m0: int

    def __post_init__(self):
        if self.c0 <= 0 or self.m0 < 1:
            raise ValueError("need c0 > 0 and integer m0 >= 1")

    def log_bound(self, space: SpaceSpec, n: int) -> float:
        a = space.alpha.value(n)
        rate = self.m0 * a if not space.is_finite_type else -a / self.m0
        return math.log(self.c0) + rate

    def envelope(self, space: SpaceSpec) -> ExponentialEnvelope:
        sign = 1 if not space.is_finite_type else -1
        return ExponentialEnvelope(self.c0, self.m0, sign)


@dataclass(frozen=True)
class DualCheckResult:
    passed: bool
    witness: Optional[int]  # first violating n
    max_log_excess: float   # max over n of log|beta_{n-1}| - log bound(n)


def dual_certificate_check(space: SpaceSpec, beta, cert: DualCertificate,
                           N: int, rel_slack: float = 1e-12) -> DualCheckResult:
    """Verify the certificate inequality for n = 1..N (symbol indexed from 0)."""
    from .symbols import coeff  # local import to keep module layering acyclic

    if N < 1:
        raise ValueError("need N >= 1")
    witness = None
    worst = NEG_INF
    slack = math.log1p(rel_slack)
    for n in range(1, N + 1):
        b = coeff(beta, n - 1)
        excess = log_abs(b) - cert.log_bound(space, n)
        worst = max(worst, excess)
        if excess > slack and witness is None:
            witness = n
    return DualCheckResult(witness is None, witness, worst)


def fit_dual_certificate(space: SpaceSpec, beta, N: int = 512,
                         m_max: int = 32) -> Optional[DualCertificate]:
    """Smallest m0 <= m_max admitting a finite c0 on the inspected range,
    using the symbol's envelope to control the unseen tail."""
    from .symbols import Symbol, symbol_envelope

    assert isinstance(beta, Symbol)
    env = symbol_envelope(beta)
    for m0 in range(1, m_max + 1):
        log_c0 = NEG_INF
        for n in range(1, N + 1):
            b = beta.coeff_abs_upper(n - 1)
            a = space.alpha.value(n)
            rate = m0 * a if not space.is_finite_type else -a / m0
            if b > 0:
                log_c0 = max(log_c0, log_abs(b) - rate)
        # beyond N the per-index excess env(n)/target(n) must be nonincreasing,
        # otherwise the prefix supremum does not dominate the tail
        if isinstance(env, GeometricEnvelope) and env.ratio > 0:
            if not space.is_finite_type:
                step = -m0 * space.alpha.increment_lower(N)
            else:
                step = space.alpha.increment_upper(N) / m0
            if math.log(env.ratio) + step > 0:
                continue
        elif isinstance(env, ExponentialEnvelope):
            if not space.is_finite_type:
                if not (env.sign > 0 and env.grade <= m0):
                    continue
            else:
                if not (env.sign < 0 and env.grade <= m0):
                    continue
        if log_c0 == NEG_INF:
            return DualCertificate(1e-300, m0)
        c0 = exp_guarded(log_c0 + 1e-12)
        if math.isfinite(c0):
            return DualCertificate(c0, m0)
    return None
