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

Storage: a finite or sampled symbol keeps its entries twice, as the tuple
that equality, hashing and the exact path use, and as one read-only float
(or complex) numpy block.  convolve hands its float output over as the
block; otherwise it is built on the first float read and kept, so exact
intermediate results that are never read as floats do not pay for it.
float_prefix, abs_upper_prefix and the kernels built on them slice that
block instead of reading coeff() index by index.  A geometric symbol has
no block: each read computes one, float(c * r**i) by integer recurrences
when c and r are rational, c * r**i in floats otherwise.

Bit identity: every float a block read returns equals float() or complex()
of the exact coefficient, and the kernels keep libm's math.exp and Python's
** for exponentials and powers.  np.exp and np.power are not libm's and
differ from them in the last bit on some inputs, which would move the
sweeps' min_slack values.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence, Union

import numpy as np

from .numerics import log_nonneg
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
    # the float or complex array of entries, when the caller already holds it
    block: InitVar[Optional[np.ndarray]] = None
    # computed once by __post_init__; == and hash see only the fields above
    _support: Optional[int] = field(init=False, repr=False, compare=False)
    _exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, block: Optional[np.ndarray] = None):
        if self.kind is SymbolKind.SAMPLED and self.extension not in (None, "zero"):
            raise ValueError(f"unknown sampled extension {self.extension!r}")
        if block is not None:
            self.__dict__["_floats"] = self._frozen(block)
        if self.kind is SymbolKind.GEOMETRIC:
            exact = is_rational(self.c) and is_rational(self.r)
        else:
            exact = self.kind is SymbolKind.FINITE and all(is_rational(v) for v in self.entries)
        object.__setattr__(self, "_support", self._find_support())
        object.__setattr__(self, "_exact", exact)
        if self.kind is SymbolKind.SAMPLED and isinstance(self.envelope, GeometricEnvelope):
            self._check_dominated()

    @cached_property
    def _floats(self) -> tuple[Optional[np.ndarray], int]:
        """(block, real_lead): the entries as one read-only float or complex
        array, built on the first float read unless handed over at
        construction, and how many leading entries are real.  The block is
        None when an entry overflows a float (float_prefix then raises on
        that entry, as it always did)."""
        try:
            return self._frozen(_to_block(self.entries))
        except OverflowError:
            return None, len(self.entries)

    def _frozen(self, block: np.ndarray) -> tuple[np.ndarray, int]:
        block.flags.writeable = False
        real_lead = len(self.entries)
        if block.dtype.kind == "c":
            real_lead = next((i for i, v in enumerate(self.entries)
                              if isinstance(v, complex)), real_lead)
        return block, real_lead

    def _check_dominated(self) -> None:
        """|s_i| <= env.at(i) * (1 + 1e-9) + 1e-300 on every stored entry.

        numpy screens the window in log domain, with a margin far above the
        rounding of exp, log and the float magnitudes; each flagged entry is
        decided by the scalar comparison above, so the first failing index
        is exact."""
        env = self.envelope
        block = self._floats[0]
        if block is None:
            flagged = range(len(self.entries))
        else:
            mags = np.abs(block)
            if env.scale == 0.0 or env.ratio == 0.0:
                flagged = np.flatnonzero(mags).tolist()   # at(i) = 0 for i > 0
            else:
                log_at = math.log(env.scale) + np.arange(len(mags)) * math.log(env.ratio)
                flagged = np.flatnonzero(log_nonneg(mags) > log_at - 1e-9).tolist()
        for i in flagged:
            if abs(self.entries[i]) > env.at(i) * (1.0 + 1e-9) + 1e-300:
                raise ValueError(f"envelope fails to dominate entry {i}")

    def _find_support(self) -> Optional[int]:
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

    # -- basic access --------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._exact

    @property
    def is_zero(self) -> bool:
        if self.kind is SymbolKind.FINITE:
            return all(v == 0 for v in self.entries)
        if self.kind is SymbolKind.GEOMETRIC:
            return self.c == 0
        return all(v == 0 for v in self.entries) and self.bounded_support() is not None

    def bounded_support(self) -> Optional[int]:
        """Smallest L with s_i = 0 for all i >= L, when certifiable."""
        return self._support

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


def finite_symbol(entries: Union[Sequence[Number], np.ndarray]) -> Symbol:
    """A float64 or complex128 ndarray is handed over as the symbol's block
    (and frozen), so it is not converted a second time."""
    block = entries if isinstance(entries, np.ndarray) and \
        entries.dtype in (np.float64, np.complex128) else None
    return Symbol(SymbolKind.FINITE, entries=tuple(entries), block=block)


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


def _unreadable_from(s: Symbol, N: int) -> Optional[int]:
    """First index below N that coeff cannot read (sampled windows only)."""
    W = len(s.entries)
    if s.kind is not SymbolKind.SAMPLED or N <= W or s.extension == "zero":
        return None
    if s.support_len is not None and s.support_len <= W:
        return None
    return W


def _require_readable(s: Symbol, N: int) -> None:
    """Raise OutOfSampledRange where coeff would, reading indices below N."""
    bad = _unreadable_from(s, N)
    if bad is not None:
        raise OutOfSampledRange(
            f"index {bad} beyond sampled window of length {len(s.entries)}")


def prefix(s: Symbol, N: int) -> list:
    """First N coefficients, exact objects where the symbol is exact."""
    if s.kind is SymbolKind.GEOMETRIC:
        if s.c == 0:
            return [0] * N
        return [s.c * s.r ** i for i in range(N)]
    _require_readable(s, N)
    out = list(s.entries[:N])
    return out + [0] * (N - len(out))


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


def _to_block(values: Sequence[Number]) -> np.ndarray:
    """values as a float array, or a complex one when any value is complex."""
    if any(isinstance(v, complex) for v in values):
        return np.array([complex(v) for v in values], dtype=complex)
    return np.array([float(v) for v in values], dtype=float)


def _abs_block(a: np.ndarray) -> np.ndarray:
    """|a| with Python's complex abs, which numpy's vectorised one can miss
    by an ulp."""
    if a.dtype.kind == "c":
        return np.array([abs(v) for v in a.tolist()], dtype=float)
    return np.abs(a)


def _geometric_block(s: Symbol, N: int) -> np.ndarray:
    if s.c == 0:
        return np.zeros(N)
    if not s.is_exact:
        if isinstance(s.r, float) and not isinstance(s.c, complex):
            # c * r**i rounds as float(c) * (r**i); ** stays Python's pow
            return float(s.c) * np.array([s.r ** i for i in range(N)], dtype=float)
        return _to_block(prefix(s, N))
    # float(c * r**i) without Fractions: int / int is correctly rounded,
    # so num / den equals it bit for bit
    c, r = Fraction(s.c), Fraction(s.r)
    num, den = c.numerator, c.denominator
    out = []
    for _ in range(N):
        out.append(num / den)
        num *= r.numerator
        den *= r.denominator
    return np.array(out, dtype=float)


def abs_upper_prefix(s: Symbol, N: int) -> np.ndarray:
    """Upper bounds |s_i| for i < N: exact magnitudes on readable indices,
    envelope values beyond (inf when no envelope covers them)."""
    W = _unreadable_from(s, N)
    if W is None:
        return _abs_block(float_prefix(s, N))
    # indices from support_len on read as 0; the ones before it need the envelope
    end = N if s.support_len is None else min(N, s.support_len)
    env = s.envelope
    beyond = [env.at(i) if isinstance(env, GeometricEnvelope) else math.inf
              for i in range(W, end)]
    return np.concatenate([_abs_block(float_prefix(s, W)), beyond, np.zeros(N - end)])


def float_prefix(s: Symbol, N: int) -> np.ndarray:
    """First N coefficients as floats (complex when one of them is complex),
    each equal to float() or complex() of the exact coefficient."""
    if s.kind is SymbolKind.GEOMETRIC:
        return _geometric_block(s, N)
    block, real_lead = s._floats
    if block is None:
        return _to_block(prefix(s, N))
    _require_readable(s, N)
    head = block[:N]
    if N <= real_lead:
        head = head.real
    if N <= len(head):
        return head
    return np.concatenate([head, np.zeros(N - len(head), dtype=head.dtype)])


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
    if len(xs) == 0 or len(ys) == 0:
        return []
    return list(np.convolve(_to_block(xs), _to_block(ys))[:N])


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
    la = min(L, sa) if sa is not None else L
    lb = min(L, sb) if sb is not None else L
    if a.is_exact and b.is_exact and a.kind is SymbolKind.FINITE and b.kind is SymbolKind.FINITE:
        block = None
        entries = tuple(_exact_list_conv(prefix(a, la), prefix(b, lb), L))
    else:
        block = np.convolve(float_prefix(a, la), float_prefix(b, lb))[:L]
        entries = tuple(block)
    if full is not None and full <= N:
        return Symbol(SymbolKind.FINITE, entries=entries, block=block)
    env = convolve_envelopes(symbol_envelope(a), symbol_envelope(b), a, b)
    return Symbol(SymbolKind.SAMPLED, entries=entries, envelope=env,
                  support_len=full, block=block)


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
