"""One-sided coefficient sequences and their convolution algebra.

A symbol is a sequence indexed from 0 in one of three representations:
an explicit finite list, a geometric law c*r**i, or a sampled window with a
dominating envelope.  Convolution is exact (rational) when both inputs are
finite lists with rational entries and floating otherwise; geometric symbols
keep exact closed forms for their absolute sums, which is what the boundary
cases of the classifiers need.

The membership convention embeds a symbol s into a space as the element
x_n = s_{n-1} (the image of the first basis vector under the associated
lower triangular operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence, Union

import numpy as np

from .spaces import (
    FINITE_TAIL,
    FinitelySupported,
    GeometricEnvelope,
    ExponentialEnvelope,
    SpaceSpec,
    TailCert,
    TailUnbounded,
    seminorm as _space_seminorm,
    shift_envelope,
)


class OutOfSampledRange(IndexError):
    """A sampled symbol was read beyond its data without an extension rule."""


Number = Union[int, Fraction, float, complex]


def is_rational(x) -> bool:
    return isinstance(x, Rational) and not isinstance(x, bool)


def trimmed_len(values: Sequence) -> int:
    """Length of values without its trailing zeros."""
    L = len(values)
    while L > 0 and values[L - 1] == 0:
        L -= 1
    return L


class SymbolKind(str, Enum):
    FINITE = "finite"
    GEOMETRIC = "geometric"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class Symbol:
    kind: SymbolKind
    entries: tuple = ()
    c: Number = 0
    r: Number = 0
    envelope: Optional[TailCert] = None
    extension: Optional[str] = None      # sampled only: "zero" or None
    support_len: Optional[int] = None    # logical support bound when known

    def __post_init__(self):
        if self.kind is SymbolKind.SAMPLED:
            if self.extension not in (None, "zero"):
                raise ValueError(f"unknown sampled extension {self.extension!r}")
            env = self.envelope
            if isinstance(env, GeometricEnvelope):
                for i, v in enumerate(self.entries):
                    if abs(v) > env.at(i) * (1.0 + 1e-9) + 1e-300:
                        raise ValueError(f"envelope fails to dominate entry {i}")

    # -- basic access --------------------------------------------------

    @property
    def is_exact(self) -> bool:
        if self.kind is SymbolKind.FINITE:
            return all(is_rational(v) for v in self.entries)
        if self.kind is SymbolKind.GEOMETRIC:
            return is_rational(self.c) and is_rational(self.r)
        return False

    @property
    def is_zero(self) -> bool:
        if self.kind is SymbolKind.FINITE:
            return all(v == 0 for v in self.entries)
        if self.kind is SymbolKind.GEOMETRIC:
            return self.c == 0
        return all(v == 0 for v in self.entries) and self.bounded_support() is not None

    def bounded_support(self) -> Optional[int]:
        """Smallest L with s_i = 0 for all i >= L, when certifiable."""
        if self.kind is SymbolKind.FINITE:
            return trimmed_len(self.entries)
        if self.kind is SymbolKind.GEOMETRIC:
            if self.c == 0:
                return 0
            return 1 if self.r == 0 else None
        if self.support_len is not None:
            if len(self.entries) >= self.support_len:
                return trimmed_len(self.entries)
            return self.support_len
        if self.extension == "zero":
            return trimmed_len(self.entries)
        if isinstance(self.envelope, GeometricEnvelope) and self.envelope.scale == 0:
            return trimmed_len(self.entries)
        return None

    def coeff_abs_upper(self, i: int) -> float:
        """|s_i| when available, else the envelope bound (inf if none)."""
        try:
            return abs(coeff(self, i))
        except OutOfSampledRange:
            env = self.envelope
            if isinstance(env, GeometricEnvelope):
                return env.at(i)
            return math.inf

    def describe(self) -> str:
        if self.kind is SymbolKind.FINITE:
            return f"finite{list(self.entries)!r}"
        if self.kind is SymbolKind.GEOMETRIC:
            return f"geometric(c={self.c}, r={self.r})"
        return f"sampled[{len(self.entries)}]"


def finite_symbol(entries: Sequence[Number]) -> Symbol:
    return Symbol(SymbolKind.FINITE, entries=tuple(entries))


def geometric_symbol(c: Number, r: Number) -> Symbol:
    return Symbol(SymbolKind.GEOMETRIC, c=c, r=r)


def sampled_symbol(values: Sequence[Number], envelope: Optional[TailCert] = None,
                   extension: Optional[str] = None,
                   support_len: Optional[int] = None) -> Symbol:
    return Symbol(SymbolKind.SAMPLED, entries=tuple(values), envelope=envelope,
                  extension=extension, support_len=support_len)


def delta_symbol(c: Number = 1) -> Symbol:
    return finite_symbol([c])


def float_symbol(s: "Symbol") -> "Symbol":
    """Floating-point copy (for evidence sweeps; certificates stay exact)."""
    def f(v):
        return complex(v) if isinstance(v, complex) else float(v)

    if s.kind is SymbolKind.FINITE:
        return finite_symbol([f(v) for v in s.entries])
    if s.kind is SymbolKind.GEOMETRIC:
        return geometric_symbol(f(s.c), f(s.r))
    return sampled_symbol([f(v) for v in s.entries], s.envelope, s.extension,
                          s.support_len)


def zero_symbol() -> Symbol:
    return finite_symbol([])


def coeff(s: Symbol, i: int) -> Number:
    """Exact value for finite/geometric symbols; sampled value or
    extension-rule zero for sampled ones."""
    if i < 0:
        raise ValueError("symbols are indexed from 0")
    if s.kind is SymbolKind.FINITE:
        return s.entries[i] if i < len(s.entries) else 0
    if s.kind is SymbolKind.GEOMETRIC:
        if s.c == 0:
            return 0
        return s.c * s.r ** i
    if i < len(s.entries):
        return s.entries[i]
    if s.support_len is not None and i >= s.support_len:
        return 0
    if s.extension == "zero":
        return 0
    raise OutOfSampledRange(f"index {i} beyond sampled window of length {len(s.entries)}")


def symbol_envelope(s: Symbol) -> TailCert:
    """A certificate dominating |s_i| for every index (symbol coordinates)."""
    if s.kind is SymbolKind.FINITE:
        return FINITE_TAIL
    if s.kind is SymbolKind.GEOMETRIC:
        if s.c == 0 or s.r == 0:
            return FINITE_TAIL
        return GeometricEnvelope(float(abs(s.c)), float(abs(s.r)))
    if s.bounded_support() is not None and s.envelope is None:
        return FINITE_TAIL
    if s.envelope is None:
        raise TailUnbounded("sampled symbol without envelope or extension rule")
    return s.envelope


def prefix(s: Symbol, N: int) -> list:
    """First N coefficients, exact objects where the symbol is exact."""
    return [coeff(s, i) for i in range(N)]


def readable_length(s: Symbol, N: int) -> int:
    """How many leading coefficients can be read, capped at N (finite and
    geometric symbols read everywhere; sampled windows stop at their data
    unless an extension rule or support bound covers the rest)."""
    if s.kind in (SymbolKind.FINITE, SymbolKind.GEOMETRIC):
        return N
    sup = s.bounded_support()
    if s.extension == "zero" or (sup is not None and len(s.entries) >= sup):
        return N
    return min(N, len(s.entries))


def abs_upper_prefix(s: Symbol, N: int) -> np.ndarray:
    """Upper bounds |s_i| for i < N: exact magnitudes on readable indices,
    envelope values beyond (inf when no envelope covers them)."""
    return np.array([s.coeff_abs_upper(i) for i in range(N)], dtype=float)


def float_prefix(s: Symbol, N: int) -> np.ndarray:
    vals = prefix(s, N)
    if any(isinstance(v, complex) for v in vals):
        return np.array([complex(v) for v in vals], dtype=complex)
    return np.array([float(v) for v in vals], dtype=float)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _int_conv(a: list, b: list, N: int) -> list:
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    L = min(N, la + lb - 1)
    out = [0] * L
    for i, ai in enumerate(a):
        if ai == 0 or i >= L:
            continue
        hi = min(lb, L - i)
        for j in range(hi):
            out[i + j] += ai * b[j]
    return out


def _exact_list_conv(xs: Sequence[Rational], ys: Sequence[Rational], N: int) -> list[Fraction]:
    dx = math.lcm(*(Fraction(v).denominator for v in xs)) if xs else 1
    dy = math.lcm(*(Fraction(v).denominator for v in ys)) if ys else 1
    ax = [int(Fraction(v) * dx) for v in xs]
    ay = [int(Fraction(v) * dy) for v in ys]
    num = _int_conv(ax, ay, N)
    d = dx * dy
    return [Fraction(v, d) for v in num]


def _float_conv(xs: Sequence[Number], ys: Sequence[Number], N: int) -> list:
    ax = np.asarray([complex(v) for v in xs]) if any(isinstance(v, complex) for v in xs) \
        else np.asarray([float(v) for v in xs], dtype=float)
    ay = np.asarray([complex(v) for v in ys]) if any(isinstance(v, complex) for v in ys) \
        else np.asarray([float(v) for v in ys], dtype=float)
    if len(ax) == 0 or len(ay) == 0:
        return []
    out = np.convolve(ax, ay)[:N]
    return list(out)


def _geometric_sup_poly(t: float) -> float:
    """sup_{m>=0} (m+1) * t**m for 0 <= t < 1 (closed: check the two integers
    bracketing the stationary point)."""
    if t <= 0.0:
        return 1.0
    m_star = -1.0 / math.log(t) - 1.0
    best = 1.0
    for m in {0, max(0, math.floor(m_star)), max(0, math.ceil(m_star))}:
        best = max(best, (m + 1) * t ** m)
    return best


def _inflate_ratio(rho: float) -> float:
    return (1.0 + rho) / 2.0 if rho < 1.0 else 1.5 * rho


def convolve_envelopes(ea: TailCert, eb: TailCert, a: Symbol, b: Symbol) -> TailCert:
    """Envelope for a*b from the factors' envelopes.

    Geometric*geometric absorbs the arising polynomial factor by inflating
    the ratio (midpoint to 1 below 1, half again above), trading tightness
    for closure of the certificate algebra.
    """
    if isinstance(ea, FinitelySupported) and isinstance(eb, FinitelySupported):
        # both supports finite; used when the product is truncated below its
        # full support, so bound the unstored coefficients by the sum product
        la = ell1_norm(a)
        lb = ell1_norm(b)
        return GeometricEnvelope(la.upper * lb.upper, 1.0)
    if isinstance(ea, FinitelySupported) or isinstance(eb, FinitelySupported):
        fin, env, fin_sym = (ea, eb, a) if isinstance(ea, FinitelySupported) else (eb, ea, b)
        if not isinstance(env, GeometricEnvelope):
            raise TailUnbounded("cannot compose a non-geometric envelope under convolution")
        if env.ratio == 0:
            return FINITE_TAIL
        L = fin_sym.bounded_support()
        if L is None:
            raise TailUnbounded("finite factor without a certified support bound")
        weights = math.fsum(float(abs(coeff(fin_sym, i))) * env.ratio ** (-i)
                            for i in range(L))
        return GeometricEnvelope(env.scale * weights, env.ratio)
    if isinstance(ea, GeometricEnvelope) and isinstance(eb, GeometricEnvelope):
        if ea.ratio == 0 or eb.ratio == 0:
            # degenerate: one factor certified zero beyond index 0
            base = ea if ea.ratio == 0 else eb
            other = eb if ea.ratio == 0 else ea
            return GeometricEnvelope(base.scale * other.scale, other.ratio)
        rho = max(ea.ratio, eb.ratio)
        rho_inflated = _inflate_ratio(rho)
        poly = _geometric_sup_poly(rho / rho_inflated)
        return GeometricEnvelope(ea.scale * eb.scale * poly, rho_inflated)
    raise TailUnbounded("cannot compose these envelope shapes under convolution")


def convolve(a: Symbol, b: Symbol, N: int) -> Symbol:
    """Truncated Cauchy product (a*b)_m = sum_{i<=m} a_i b_{m-i}, m < N.

    Exact when both inputs are finite lists with rational entries; otherwise
    floating point.  The result carries the composed envelope certificate.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    sa, sb = a.bounded_support(), b.bounded_support()
    if sa == 0 or sb == 0:
        return zero_symbol()
    full = sa + sb - 1 if (sa is not None and sb is not None) else None
    L = min(N, full) if full is not None else N
    xs = prefix(a, min(L, sa) if sa is not None else L)
    ys = prefix(b, min(L, sb) if sb is not None else L)
    if a.is_exact and b.is_exact and a.kind is SymbolKind.FINITE and b.kind is SymbolKind.FINITE:
        vals = _exact_list_conv(xs, ys, L)
    else:
        vals = _float_conv(xs, ys, L)
    if full is not None and full <= N:
        return finite_symbol(vals)
    env = convolve_envelopes(symbol_envelope(a), symbol_envelope(b), a, b)
    return sampled_symbol(vals, envelope=env, support_len=full)


@dataclass
class ConvPowerTable:
    """Cache of truncated convolution powers of one symbol.

    Construction is single-writer (powers fill on demand); once built the
    table is safe to share for reads.
    """

    base: Symbol
    truncation: int
    _powers: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.base.is_exact and self.base.kind is SymbolKind.FINITE

    def power(self, k: int) -> Symbol:
        if k < 1:
            raise ValueError("powers start at k = 1")
        if k in self._powers:
            return self._powers[k]
        if k == 1:
            out = self.base
        else:
            out = convolve(self.power(k - 1), self.base, self.truncation)
        self._powers[k] = out
        return out


def conv_power(a: Symbol, k: int, N: int, table: Optional[ConvPowerTable] = None) -> Symbol:
    """k-fold convolution power via iterated convolve (optionally cached)."""
    if table is not None:
        if table.base != a or table.truncation != N:
            raise ValueError("table does not match symbol/truncation")
        return table.power(k)
    return ConvPowerTable(a, N).power(k)


def conv_power_binary(a: Symbol, k: int, N: int) -> Symbol:
    """Square-and-multiply variant; agrees with conv_power exactly on the
    truncation because truncated convolution is associative prefix-wise."""
    if k < 1:
        raise ValueError("powers start at k = 1")
    result: Optional[Symbol] = None
    sq = a
    e = k
    while e:
        if e & 1:
            result = sq if result is None else convolve(result, sq, N)
        e >>= 1
        if e:
            sq = convolve(sq, sq, N)
    assert result is not None
    return result


# ---------------------------------------------------------------------------
# Absolute sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSum:
    """Absolute sum of a symbol with a rigorous tail majorant.

    infinite=True means the certificate proves divergence; exact carries the
    closed-form rational value when one exists.
    """

    partial: float
    tail: float
    infinite: bool = False
    exact: Optional[Fraction] = None

    @property
    def upper(self) -> float:
        return math.inf if self.infinite else self.partial + self.tail

    @property
    def lower(self) -> float:
        return self.partial

    @property
    def is_exact(self) -> bool:
        return self.exact is not None and not self.infinite


def ell1_norm(s: Symbol, window: int = 4096) -> SeriesSum:
    """sum_i |s_i| with a closed-form tail majorant per certificate.

    Raises TailUnbounded when the certificate cannot settle summability
    (e.g. a merely bounded sampled tail); returns infinite=True when it
    certifies divergence.
    """
    if s.kind is SymbolKind.FINITE:
        if s.is_exact:
            exact = sum(abs(Fraction(v)) for v in s.entries) if s.entries else Fraction(0)
            return SeriesSum(float(exact), 0.0, exact=exact)
        return SeriesSum(math.fsum(abs(v) for v in s.entries), 0.0)
    if s.kind is SymbolKind.GEOMETRIC:
        if s.c == 0:
            return SeriesSum(0.0, 0.0, exact=Fraction(0))
        r_abs = abs(s.r)
        if r_abs >= 1:
            return SeriesSum(math.inf, 0.0, infinite=True)
        if s.is_exact:
            exact = abs(Fraction(s.c)) / (1 - abs(Fraction(s.r)))
            return SeriesSum(float(exact), 0.0, exact=exact)
        return SeriesSum(float(abs(s.c)) / (1.0 - float(r_abs)), 0.0)
    # sampled
    W = len(s.entries)
    partial = math.fsum(abs(v) for v in s.entries)
    L = s.bounded_support()
    if L is not None and L <= W:
        return SeriesSum(partial, 0.0)
    env = s.envelope
    if isinstance(env, GeometricEnvelope):
        if env.ratio < 1:
            tail = env.scale * env.ratio ** W / (1.0 - env.ratio) if env.ratio > 0 else 0.0
            return SeriesSum(partial, tail)
        if L is not None:
            tail = math.fsum(env.at(i) for i in range(W, L))
            return SeriesSum(partial, tail)
        raise TailUnbounded("geometric envelope with ratio >= 1 cannot settle the sum")
    if L is not None and env is None:
        return SeriesSum(partial, 0.0)
    raise TailUnbounded("sampled symbol without a summable certificate")


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Embedded:
    values: tuple
    tail: TailCert


def embedded_element_data(s: Symbol, N: int) -> _Embedded:
    """Symbol as element data under x_n = s_{n-1} (tail shifted accordingly),
    truncated at the readable window when the data runs out earlier."""
    W = readable_length(s, N)
    vals = tuple(prefix(s, W))
    sup = s.bounded_support()
    if sup is not None and W >= sup:
        return _Embedded(vals, FINITE_TAIL)
    env = symbol_envelope(s)
    return _Embedded(vals, shift_envelope(env, 1) if isinstance(env, GeometricEnvelope) else env)


def symbol_grade_norm(space: SpaceSpec, s: Symbol, k: int, N: int = 256):
    """Grade-k seminorm of the embedded symbol, with tail bound."""
    return _space_seminorm(space, embedded_element_data(s, N), k)


@dataclass(frozen=True)
class GradeCheck:
    grade: int
    status: str  # "finite" | "divergent" | "unknown"
    norm_upper: Optional[float] = None
    log_norm_upper: Optional[float] = None
    reason: str = ""


@dataclass(frozen=True)
class MembershipReport:
    space: SpaceSpec
    grades: tuple[GradeCheck, ...]
    overall: str  # "member_on_grid" | "not_member" | "inconclusive"
    full_membership: Optional[bool] = None  # closed-form answer when available

    @property
    def passed(self) -> bool:
        return self.overall == "member_on_grid" and self.full_membership is not False


def _geometric_grade_status(space: SpaceSpec, s: Symbol, k: int) -> GradeCheck:
    """Closed-form grade check for geometric symbols on linear alpha."""
    r_abs = float(abs(s.r))
    c_abs = float(abs(s.c))
    if space.is_finite_type:
        t = r_abs * math.exp(-1.0 / k)
        logw1 = -1.0 / k
    else:
        t = r_abs * math.exp(float(k))
        logw1 = float(k)
    if t < 1.0:
        log_norm = math.log(c_abs) + logw1 - math.log1p(-t)
        return GradeCheck(k, "finite", math.exp(log_norm), log_norm)
    return GradeCheck(k, "divergent",
                      reason=f"term ratio {t:.6g} >= 1 in grade {k}")


def membership_check(space: SpaceSpec, s: Symbol,
                     k_grid: Optional[Sequence[int]] = None,
                     N: int = 256) -> MembershipReport:
    """Check ||s||_k < inf (with tail bounds) for each grade in the grid."""
    grid = list(k_grid) if k_grid is not None else list(range(1, 9))
    checks: list[GradeCheck] = []
    full: Optional[bool] = None
    if s.kind is SymbolKind.FINITE or s.bounded_support() is not None:
        full = True
    if s.kind is SymbolKind.GEOMETRIC and space.is_linear and s.c != 0 and s.r != 0:
        r_abs = float(abs(s.r))
        full = (r_abs <= 1.0) if space.is_finite_type else False
        for k in grid:
            checks.append(_geometric_grade_status(space, s, k))
    else:
        for k in grid:
            try:
                tv = symbol_grade_norm(space, s, k, N)
                checks.append(GradeCheck(k, "finite", tv.upper, tv.log_upper))
            except TailUnbounded as exc:
                checks.append(GradeCheck(k, "unknown", reason=str(exc)))
    if any(c.status == "divergent" for c in checks):
        overall = "not_member"
    elif all(c.status == "finite" for c in checks):
        overall = "member_on_grid"
    else:
        overall = "inconclusive"
    if full is False and overall == "member_on_grid":
        # grid too small to see the divergence; full answer wins
        overall = "not_member"
    return MembershipReport(space, tuple(checks), overall, full)


# ---------------------------------------------------------------------------
# Parsing (CLI symbol literals)
# ---------------------------------------------------------------------------


def parse_number(v) -> Number:
    if isinstance(v, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"cannot parse number from {v!r}")


def parse_symbol(obj) -> Symbol:
    """Parse a symbol literal: {"finite": [...]}, {"geometric": {"c":..,"r":..}},
    or {"sampled": {"values": [...], "envelope": ..., "extension": ...}}.
    Strings parse as exact fractions ("1/2")."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"symbol literal must be a single-key object, got {obj!r}")
    (key, val), = obj.items()
    if key == "finite":
        return finite_symbol([parse_number(v) for v in val])
    if key == "geometric":
        extra = set(val) - {"c", "r"}
        if extra:
            raise ValueError(f"unknown geometric fields {sorted(extra)}")
        return geometric_symbol(parse_number(val["c"]), parse_number(val["r"]))
    if key == "sampled":
        extra = set(val) - {"values", "envelope", "extension", "support_len"}
        if extra:
            raise ValueError(f"unknown sampled fields {sorted(extra)}")
        env = None
        if val.get("envelope") is not None:
            env = parse_envelope(val["envelope"])
        return sampled_symbol([parse_number(v) for v in val["values"]], env,
                              val.get("extension"), val.get("support_len"))
    raise ValueError(f"unknown symbol kind {key!r}")


def parse_envelope(obj) -> TailCert:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"envelope must be a single-key object, got {obj!r}")
    (key, val), = obj.items()
    if key == "geometric":
        extra = set(val) - {"scale", "ratio"}
        if extra:
            raise ValueError(f"unknown envelope fields {sorted(extra)}")
        return GeometricEnvelope(float(val["scale"]), float(val["ratio"]))
    if key == "exponential":
        extra = set(val) - {"scale", "grade", "sign"}
        if extra:
            raise ValueError(f"unknown envelope fields {sorted(extra)}")
        return ExponentialEnvelope(float(val["scale"]), int(val["grade"]), int(val["sign"]))
    if key == "finite":
        return FINITE_TAIL
    raise ValueError(f"unknown envelope kind {key!r}")
