"""One-sided coefficient sequences and their convolution algebra.

A symbol is a sequence indexed from 0 in one of three representations:
an explicit finite list, a geometric law c*r**i, or a sampled window with a
dominating envelope.  Every entry (and c, r) must be a number; anything else
raises TypeError at construction.  Convolution is exact (rational) when both
inputs are finite lists with rational entries and floating otherwise; the
exact path clears each input's denominators once, sums Python ints and
builds one Fraction per output entry.  An exact finite power that fits the
truncation is carried the same way: integer numerators over d**k, d the
base's common denominator, with Fractions built only for the result; every
other power (float, geometric or sampled base, or an exact one cut by the
truncation) is k - 1 convolve calls upward, one Symbol and envelope per
power; sweeps of the magnitudes alone take float_power_rows, its values as
one array.  Geometric symbols keep exact closed forms for
their absolute sums, which is what the boundary cases of the classifiers need.

The membership convention embeds a symbol s into a space as the element
x_n = s_{n-1} (the image of the first basis vector under the associated
lower triangular operator).

What a sampled symbol says past its stored values s_0..s_{W-1}: either
that they are zero, or that they are unknown from the gap W up to the
support bound (support_len, or forever when there is none) and zero from
there on.  Four inputs say "zero": extension="zero" (stored as support_len
= W), support_len <= W, an envelope of scale 0, and an envelope of ratio 0
(zero past index 0, so with W >= 1).  Symbol.__post_init__ resolves the
support bound and the gap (None when every coefficient is known) once, and
every reader here answers from those two and the envelope, which alone
bounds the unknown coefficients: none reads a coefficient in the gap as
zero.  coeff and the prefixes raise OutOfSampledRange there, and the sums
and envelopes use the envelope or raise TailUnbounded.

Ownership: this module alone decodes how a symbol is stored (its entries
window, support bound and gap).  Every other module reads
coefficients through the readers here (prefix, float_prefix,
abs_upper_prefix, readable_length, symbol_abs_and_env, coeff) and the sums
below, so a change of storage stays here.

Storage: a finite or sampled symbol keeps its entries twice, as the tuple
that equality, hashing and the exact path use, and as one read-only float
(or complex) numpy block.  convolve hands its float output over as the
block; otherwise it is built on the first float read and kept, so exact
intermediate results that are never read as floats do not pay for it.
A geometric symbol keeps the longest block read so far: float(c * r**i)
by integer recurrences when c and r are rational, c * r**i in floats
otherwise.  Shorter reads slice it; a longer read rebuilds it from i = 0,
which changes no bit because entry i never depends on the read length.
float_prefix, abs_upper_prefix and the kernels built on them slice these
blocks instead of reading coeff() index by index, and every float_prefix
result is read-only.  The blocks are caches: none is built at import or
by construction (a block handed over is kept), and no module but this one
reads them.

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
from numbers import Integral, Number as _NumberABC, Rational
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
    convolve_finite,
    convolve_geometric,
    geometric_tail_sum,
    positive_scale,
    seminorm as _space_seminorm,
    shift_envelope,
)


class OutOfSampledRange(IndexError):
    """A sampled symbol was read in its gap, where its coefficients are unknown."""


Number = Union[int, Fraction, float, complex]


def is_rational(x) -> bool:
    if type(x) is int or type(x) is Fraction:
        return True
    return isinstance(x, Rational) and not isinstance(x, bool)


_INEXACT_TYPES = (float, complex, np.float64, np.complex128)


def _scan_numbers(values: Sequence, names: Optional[Sequence[str]] = None) -> bool:
    """Whether every value is rational.  A value that is not a number raises
    TypeError naming it (names[i], else "entry i") and its type."""
    exact = True
    for i, v in enumerate(values):
        t = type(v)
        if t is int or t is Fraction:
            continue
        if t in _INEXACT_TYPES:
            exact = False
        elif not isinstance(v, _NumberABC):
            name = names[i] if names else f"entry {i}"
            raise TypeError(f"symbol {name} is a {t.__name__}, not a number")
        elif exact:
            exact = is_rational(v)
    return exact


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
    support_len: Optional[int] = None    # sampled only: s_i = 0 for i >= support_len
    # the float or complex array of entries, when the caller already holds it
    block: InitVar[Optional[np.ndarray]] = None
    # computed once by __post_init__; == and hash see only the fields above
    _support: Optional[int] = field(init=False, repr=False, compare=False)
    _gap: Optional[int] = field(init=False, repr=False, compare=False)
    _exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, block: Optional[np.ndarray] = None):
        if block is not None:
            self.__dict__["_floats"] = self._frozen(block)
        if self.kind is SymbolKind.GEOMETRIC:
            exact = _scan_numbers((self.c, self.r), ("c", "r"))
        elif block is not None:
            exact = False   # the entries are the items of a float or complex array
        else:
            exact = _scan_numbers(self.entries) and self.kind is SymbolKind.FINITE
        # the support bound, and the gap: the first coefficient not determined
        gap = None
        if self.kind is SymbolKind.FINITE:
            support = trimmed_len(self.entries)
        elif self.kind is SymbolKind.GEOMETRIC:
            support = 0 if self.c == 0 else (1 if self.r == 0 else None)
        else:
            W, env = len(self.entries), self.envelope
            # FINITE_TAIL bounds no value, so a support bound past W keeps its gap
            if (self.support_len is not None and self.support_len <= W) or (
                    self.support_len is None and isinstance(env, FinitelySupported)) or (
                    isinstance(env, GeometricEnvelope)
                    and (env.scale == 0 or (env.ratio == 0 and W > 0))):
                support = trimmed_len(self.entries)
            else:
                support, gap = self.support_len, W
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_gap", gap)
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
        _readonly(block)
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

    # -- basic access --------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._exact

    @property
    def is_zero(self) -> bool:
        return self._support == 0

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
    """extension="zero" says the support ends at the values: it is stored as
    support_len = len(values), or the given support_len when smaller."""
    values = tuple(values)
    if extension not in (None, "zero"):
        raise ValueError(f"unknown sampled extension {extension!r}")
    if extension == "zero":
        support_len = len(values) if support_len is None else min(support_len, len(values))
    return Symbol(SymbolKind.SAMPLED, entries=values, envelope=envelope,
                  support_len=support_len)


def delta_symbol(c: Number = 1) -> Symbol:
    return finite_symbol([c])


def float_symbol(s: "Symbol") -> "Symbol":
    """Floating-point copy (for evidence sweeps; certificates stay exact).
    An exact value past the float range has no copy: TailUnbounded."""
    def f(v):
        return complex(v) if isinstance(v, complex) else float(v)

    try:
        if s.kind is SymbolKind.FINITE:
            return finite_symbol([f(v) for v in s.entries])
        if s.kind is SymbolKind.GEOMETRIC:
            return geometric_symbol(f(s.c), f(s.r))
        return sampled_symbol([f(v) for v in s.entries], s.envelope, support_len=s.support_len)
    except OverflowError:
        raise TailUnbounded("a symbol coefficient overflows a float") from None


def times_power_of_two(s: Symbol, e: int) -> Symbol:
    """The float symbol s * 2**e on what can be read of it: exact while the
    products stay normal.  A sampled window keeps its support and gap but no
    envelope, whose scale times 2**e may be past the float range."""
    def mul(v):
        if isinstance(v, complex):
            return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))
        return math.ldexp(v, e)

    if s.kind is SymbolKind.GEOMETRIC:
        return geometric_symbol(mul(s.c), s.r)
    values = [mul(v) for v in s.entries]
    if s.kind is SymbolKind.FINITE:
        return finite_symbol(values)
    return sampled_symbol(values, support_len=len(values) if s._gap is None else s.support_len)


def zero_symbol() -> Symbol:
    return finite_symbol([])


def coeff(s: Symbol, i: int) -> Number:
    """Exact value for finite/geometric symbols; the stored value, or zero
    past the support, for sampled ones (OutOfSampledRange in the gap)."""
    if i < 0:
        raise ValueError("symbols are indexed from 0")
    if s.kind is SymbolKind.GEOMETRIC:
        return 0 if s.c == 0 else s.c * s.r ** i
    if i < len(s.entries):
        return s.entries[i]
    if s._gap is not None and (s._support is None or i < s._support):
        raise OutOfSampledRange(f"index {i} beyond sampled window of length {len(s.entries)}")
    return 0


def symbol_envelope(s: Symbol) -> TailCert:
    """A certificate dominating |s_i| for every index (symbol coordinates)."""
    if s.kind is SymbolKind.GEOMETRIC:
        if s.c == 0 or s.r == 0:
            return FINITE_TAIL
        return GeometricEnvelope(float(abs(s.c)), float(abs(s.r)))
    if s._gap is None:
        return s.envelope if s.envelope is not None else FINITE_TAIL
    if s.envelope is None:
        raise TailUnbounded("sampled symbol without envelope or extension rule")
    if isinstance(s.envelope, FinitelySupported):
        raise TailUnbounded("a finite-support envelope bounds no coefficient in the gap")
    return s.envelope


def _require_readable(s: Symbol, N: int) -> None:
    """Raise OutOfSampledRange where coeff would, reading indices below N."""
    if readable_length(s, N) < N:
        raise OutOfSampledRange(
            f"index {s._gap} beyond sampled window of length {len(s.entries)}")


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
    """How many leading coefficients can be read, capped at N: all of them,
    or those before the gap.  With N = math.inf the result is finite exactly
    when the symbol has a gap."""
    return N if s._gap is None else min(N, s._gap)


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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _geometric_block(s: Symbol, N: int) -> np.ndarray:
    """float(c * r**i) for i < N, built from i = 0 (float_prefix keeps it)."""
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
    envelope values in the gap (inf when no envelope covers them)."""
    W = readable_length(s, N)
    if W == N:
        return _abs_block(float_prefix(s, N))
    # the gap runs up to the support bound, and the indices from there on are 0
    sup = s.bounded_support()
    end = N if sup is None else min(N, sup)
    env = s.envelope
    beyond = [env.at(i) if isinstance(env, GeometricEnvelope) else math.inf
              for i in range(W, end)]
    return np.concatenate([_abs_block(float_prefix(s, W)), beyond, np.zeros(N - end)])


def float_prefix(s: Symbol, N: int) -> np.ndarray:
    """First N coefficients as floats (complex when one of them is complex),
    each equal to float() or complex() of the exact coefficient.  The
    result is read-only: it may be a view of the symbol's kept block."""
    if s.kind is SymbolKind.GEOMETRIC:
        block = s.__dict__.get("_geo_floats")
        if block is None or len(block) < N:
            block = s.__dict__["_geo_floats"] = _readonly(_geometric_block(s, N))
        return block[:N]
    block, real_lead = s._floats
    if block is None:
        return _readonly(_to_block(prefix(s, N)))
    _require_readable(s, N)
    head = block[:N]
    if N <= real_lead:
        head = head.real
    if N <= len(head):
        return head
    return _readonly(np.concatenate([head, np.zeros(N - len(head), dtype=head.dtype)]))


def symbol_abs_and_env(s: Symbol, L: int):
    """Readable |coefficients| (at most L of them) plus the geometric
    envelope that bounds the rest (None when the returned prefix is the whole
    support)."""
    sup, env = s.bounded_support(), None
    if s._gap is not None or sup is None:
        env = symbol_envelope(s)
        if not isinstance(env, GeometricEnvelope):
            raise TailUnbounded("symbol tail beyond the window is not geometrically bounded")
        sup = readable_length(s, L)
    try:
        return np.abs(float_prefix(s, sup)), env
    except OverflowError:
        raise TailUnbounded("a symbol coefficient overflows a float") from None


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def scaled_ints(values: Sequence[Rational]) -> tuple[list[int], int]:
    """(ints, d) with values[i] == ints[i] / d, d the least common
    denominator; builds no Fraction for int or Fraction entries."""
    vals = [v if type(v) is int or type(v) is Fraction
            else (int(v) if isinstance(v, Integral) else Fraction(v)) for v in values]
    d = math.lcm(*[v.denominator for v in vals])
    return [v.numerator * (d // v.denominator) for v in vals], d


def _int_conv(a: list, b: list, N: int) -> list:
    """First min(N, len(a) + len(b) - 1) entries of the Cauchy product of two
    integer lists (empty when either is empty)."""
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
    """Truncated Cauchy product of two rational lists in integers: each
    input's denominators are cleared once, and every entry comes back as a
    Fraction (also when all inputs are ints)."""
    ax, dx = scaled_ints(xs)
    ay, dy = scaled_ints(ys)
    d = dx * dy
    return [Fraction(v, d) for v in _int_conv(ax, ay, N)]


def _float_conv(xs: Sequence[Number], ys: np.ndarray, N: int) -> list:
    if len(xs) == 0 or len(ys) == 0:
        return []
    return list(np.convolve(_to_block(xs), ys)[:N])


def convolve_envelopes(ea: TailCert, eb: TailCert, a: Symbol, b: Symbol) -> TailCert:
    """Envelope for a*b from the factors' envelopes, by the rules in spaces
    (convolve_finite, convolve_geometric)."""
    def ends_support(e: TailCert) -> bool:
        return isinstance(e, FinitelySupported) or (isinstance(e, GeometricEnvelope)
                                                    and e.ratio == 0)

    if ends_support(ea) and ends_support(eb):
        # both supports finite; used when the product is truncated below its
        # full support, so bound the unstored coefficients by the sum product
        la, lb = ell1_norm(a).upper, ell1_norm(b).upper
        return GeometricEnvelope(positive_scale(la * lb, la, lb), 1.0)
    if isinstance(ea, FinitelySupported) or isinstance(eb, FinitelySupported):
        fin, env, fin_sym = (ea, eb, a) if isinstance(ea, FinitelySupported) else (eb, ea, b)
        if not isinstance(env, GeometricEnvelope):
            raise TailUnbounded("cannot compose a non-geometric envelope under convolution")
        L = fin_sym.bounded_support()
        if L is None:
            raise TailUnbounded("finite factor without a certified support bound")
        return convolve_finite(prefix(fin_sym, L), env)
    if isinstance(ea, GeometricEnvelope) and isinstance(eb, GeometricEnvelope):
        return convolve_geometric(ea, eb)
    raise TailUnbounded("cannot compose these envelope shapes under convolution")


def _product_lengths(sa: Optional[int], sb: Optional[int], N: int):
    """convolve's (full, L, la, lb) for supports sa, sb (nonzero; None: unbounded):
    the product is finite, of its trimmed length, when full <= N."""
    full = sa + sb - 1 if (sa is not None and sb is not None) else None
    L = min(N, full) if full is not None else N
    la = min(L, sa) if sa is not None else L
    lb = min(L, sb) if sb is not None else L
    return full, L, la, lb


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
    full, L, la, lb = _product_lengths(sa, sb, N)
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
    """Cache of truncated convolution powers of one symbol, filled on demand
    by convolve, for classify's readers of every power's envelope up to K."""

    base: Symbol
    truncation: int
    _powers: dict = field(default_factory=dict)

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


def float_power_rows(theta: Symbol, K: int, N: int) -> tuple[np.ndarray, list]:
    """|coefficients| of the powers k <= K of ConvPowerTable(float_symbol(theta),
    N) as rows of one array (to its last nonzero column), and each power's
    readable length (math.inf without a gap).  Row 1 is the base's window,
    support or first N; row k is np.convolve(row k - 1, base) on convolve's
    lengths: the chain's bits, with no Symbol or envelope per power.  For
    12 <= N < M the rows at N are the first N columns of the rows at M, bit
    for bit (notes/decisions.md section 9)."""
    base = float_symbol(theta)
    t = s = base.bounded_support()
    window = readable_length(base, math.inf)
    row = float_prefix(base, window if window < math.inf else (N if s is None else s))
    windows = [window] + [math.inf] * (K - 1)
    # row k holds at most min(N, k(s - 1) + 1) entries
    out = np.zeros((K, max(1, len(row), N if s is None else min(N, K * (s - 1) + 1))))
    out[0, :len(row)] = np.abs(row)
    for k in range(2, K + 1):
        if t == 0:
            break
        full, L, la, lb = _product_lengths(t, s, N)
        prev = float_prefix(base, la) if k == 2 else row[:la]
        row = np.convolve(prev, float_prefix(base, lb))[:L]
        out[k - 1, :L] = np.abs(row)
        t, windows[k - 1] = (full, L) if full is None or full > N else (trimmed_len(row), math.inf)
    nonzero = np.flatnonzero(out.any(axis=0))
    return out[:, :int(nonzero[-1]) + 1 if nonzero.size else 1], windows


def _power_by(x, k: int, mul, binary: bool):
    """x^k under the product mul: k - 1 products upward, or square-and-multiply
    (floor(log2 k) + popcount(k) - 1 products) when binary."""
    if not binary:
        out = x
        for _ in range(k - 1):
            out = mul(out, x)
        return out
    out, e = None, k
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def _exact_power(a: Symbol, k: int, N: int, binary: bool) -> Optional[Symbol]:
    """a^{*k} for k >= 2 when a is an exact finite symbol of support s whose
    power fits the truncation, k (s - 1) + 1 <= N; None otherwise.  The
    entries are integer numerators over d**k, d the least common denominator
    of a, with one Fraction built per output entry."""
    if k < 2 or N < 1 or a.kind is not SymbolKind.FINITE or not a.is_exact:
        return None
    s = a.bounded_support()
    if k * (s - 1) + 1 > N:
        return None
    if s == 0:
        return zero_symbol()
    ints, d = scaled_ints(a.entries[:s])
    out = _power_by(ints, k, lambda u, v: _int_conv(u, v, N), binary)
    scale = d ** k
    # a list first: tuple() of a generator grows its tuple by repeated
    # resizes, which left the process's peak RSS climbing over repeated calls
    return Symbol(SymbolKind.FINITE, entries=tuple([Fraction(v, scale) for v in out]))


def _conv_power(a: Symbol, k: int, N: int, binary: bool) -> Symbol:
    if k < 1:
        raise ValueError("powers start at k = 1")
    out = _exact_power(a, k, N, binary)
    return out if out is not None else _power_by(a, k, lambda u, v: convolve(u, v, N), binary)


def conv_power(a: Symbol, k: int, N: int) -> Symbol:
    """k-fold convolution power: integer numerators over d**k for an exact
    finite a whose power fits below N, else k - 1 convolve calls upward,
    a^{*j} = convolve(a^{*(j-1)}, a, N), as ConvPowerTable(a, N).power(k)."""
    return _conv_power(a, k, N, binary=False)


def conv_power_binary(a: Symbol, k: int, N: int) -> Symbol:
    """Square-and-multiply variant of conv_power; agrees with it exactly on
    the truncation because truncated convolution is associative prefix-wise."""
    return _conv_power(a, k, N, binary=True)


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


def exact_float(x: Rational, what: str) -> float:
    """float(x), or TailUnbounded naming what when x is past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise TailUnbounded(f"{what} overflows a float") from None


def ell1_norm(s: Symbol) -> SeriesSum:
    """sum_i |s_i| with a closed-form tail majorant per certificate.

    Raises TailUnbounded when the certificate cannot settle summability
    (e.g. a merely bounded sampled tail) or the sum is past the float range;
    returns infinite=True when it certifies divergence.
    """
    try:
        return _ell1_norm(s)
    except OverflowError:
        raise TailUnbounded("the absolute sum overflows a float") from None


def _ell1_norm(s: Symbol) -> SeriesSum:
    if s.kind is SymbolKind.FINITE:
        if s.is_exact:
            exact = sum(abs(Fraction(v)) for v in s.entries) if s.entries else Fraction(0)
            return SeriesSum(exact_float(exact, "the absolute sum"), 0.0, exact=exact)
        return SeriesSum(math.fsum(abs(v) for v in s.entries), 0.0)
    if s.kind is SymbolKind.GEOMETRIC:
        if s.c == 0:
            return SeriesSum(0.0, 0.0, exact=Fraction(0))
        r_abs = abs(s.r)
        if r_abs >= 1:
            return SeriesSum(math.inf, 0.0, infinite=True)
        if s.is_exact:
            exact = abs(Fraction(s.c)) / (1 - abs(Fraction(s.r)))
            return SeriesSum(exact_float(exact, "the absolute sum"), 0.0, exact=exact)
        return SeriesSum(float(abs(s.c)) / (1.0 - float(r_abs)), 0.0)
    # sampled: the stored values, plus the envelope over the gap
    partial = math.fsum(abs(v) for v in s.entries)
    W, L, env = s._gap, s.bounded_support(), s.envelope
    if W is None:
        return SeriesSum(partial, 0.0)
    if not isinstance(env, GeometricEnvelope):
        raise TailUnbounded("sampled symbol without a summable certificate")
    if env.ratio < 1:
        return SeriesSum(partial, geometric_tail_sum(env, W))
    if L is None:
        raise TailUnbounded("geometric envelope with ratio >= 1 cannot settle the sum")
    return SeriesSum(partial, math.fsum(env.at(i) for i in range(W, L)))


def weighted_beta_sum_finite(beta: Symbol) -> SeriesSum:
    """B = sum |beta_{n-1}| e^n for the finite-type tame bound (alpha = n)."""
    sup = beta.bounded_support()
    if beta._gap is None and sup is not None:
        partial = math.fsum(abs(coeff(beta, i)) * math.exp(i + 1.0) for i in range(sup))
        return SeriesSum(partial, 0.0)
    if beta.kind is SymbolKind.GEOMETRIC:
        t = float(abs(beta.r)) * math.e
        if t >= 1:
            return SeriesSum(math.inf, 0.0, infinite=True)
        return SeriesSum(float(abs(beta.c)) * math.e / (1 - t), 0.0)
    # sampled with a gap: the stored values, plus the envelope over the gap
    env = beta.envelope
    partial = math.fsum(abs(v) * math.exp(i + 1.0) for i, v in enumerate(beta.entries))
    if isinstance(env, GeometricEnvelope):
        if env.ratio * math.e < 1:
            return SeriesSum(partial, geometric_tail_sum(env, beta._gap, math.e))
        raise TailUnbounded("envelope cannot settle the exponentially weighted sum")
    raise TailUnbounded("no certificate for the exponentially weighted sum")


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
    return _Embedded(vals, shift_envelope(symbol_envelope(s), 1))


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


def membership_check(space: SpaceSpec, s: Symbol, N: int = 256) -> MembershipReport:
    """Check ||s||_k < inf (with tail bounds) for the grades k = 1..8."""
    grid = range(1, 9)
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
