import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import psop
import psop.symbols as symbols_module
from psop import (
    ExponentialEnvelope,
    GeometricEnvelope,
    OutOfSampledRange,
    TailUnbounded,
    coeff,
    conv_power,
    convolve,
    delta_symbol,
    ell1_norm,
    finite_symbol,
    finite_type_space,
    geometric_symbol,
    membership_check,
    parse_symbol,
    sampled_symbol,
    zero_symbol,
)
from psop.spaces import FINITE_TAIL
from psop.symbols import (
    ConvPowerTable,
    SymbolKind,
    abs_upper_prefix,
    conv_power_binary,
    float_prefix,
    prefix,
    readable_length,
    symbol_envelope,
    weighted_beta_sum_finite,
)

rationals = st.fractions(min_value=-4, max_value=4)
finite_lists = st.lists(rationals, min_size=1, max_size=10).map(finite_symbol)


def test_coeff_examples():
    assert coeff(geometric_symbol(Fraction(1), Fraction(1, 2)), 3) == Fraction(1, 8)
    assert coeff(finite_symbol([1, 1]), 5) == 0
    s = sampled_symbol([1, 2, 3, 4])
    with pytest.raises(OutOfSampledRange):
        coeff(s, 9)
    assert coeff(sampled_symbol([1, 2], extension="zero"), 9) == 0


def test_convolve_examples():
    a = finite_symbol([1, 1])
    assert prefix(convolve(a, a, 8), 3) == [1, 2, 1]
    b = finite_symbol([3, 4, 5])
    assert prefix(convolve(delta_symbol(), b, 8), 3) == [3, 4, 5]
    c = convolve(geometric_symbol(1.0, 0.5), geometric_symbol(1.0, 1 / 3), 6)
    assert c.entries[2] == pytest.approx(1 / 4 + 1 / 6 + 1 / 9, rel=1e-14)


@given(finite_lists, finite_lists)
@settings(max_examples=80, deadline=None)
def test_convolution_commutative(a, b):
    assert prefix(convolve(a, b, 32), 32) == prefix(convolve(b, a, 32), 32)


@given(finite_lists, finite_lists, finite_lists)
@settings(max_examples=60, deadline=None)
def test_convolution_associative(a, b, c):
    left = convolve(convolve(a, b, 32), c, 32)
    right = convolve(a, convolve(b, c, 32), 32)
    assert prefix(left, 32) == prefix(right, 32)


def test_delta_two_sided_identity():
    d = delta_symbol()
    for s in (finite_symbol([2, -3, Fraction(1, 2)]), geometric_symbol(1.0, 0.25)):
        assert prefix(convolve(d, s, 16), 16) == pytest.approx(prefix(s, 16))
        assert prefix(convolve(s, d, 16), 16) == pytest.approx(prefix(s, 16))


def test_conv_power_examples():
    assert prefix(conv_power(finite_symbol([1, 1]), 3, 8), 4) == [1, 3, 3, 1]
    scaled = conv_power(delta_symbol(Fraction(1, 2)), 5, 4)
    assert prefix(scaled, 2) == [Fraction(1, 32), 0]
    p2 = conv_power(geometric_symbol(1.0, 0.5), 2, 8)
    assert p2.entries[3] == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("k", [2, 5, 17, 32])
def test_binary_splitting_matches_iterated(k):
    s = finite_symbol([Fraction(1, 2), Fraction(-1, 3), Fraction(2)])
    assert prefix(conv_power_binary(s, k, 64), 64) == prefix(conv_power(s, k, 64), 64)


def test_conv_power_table_consistency():
    table = ConvPowerTable(finite_symbol([1, 2]), 32)
    for k in range(1, 9):
        want = prefix(convolve(table.power(k), finite_symbol([1, 2]), 32), 32)
        assert prefix(table.power(k + 1), 32) == want


def test_ell1_examples():
    s = ell1_norm(geometric_symbol(Fraction(1, 2), Fraction(1, 2)))
    assert s.exact == 1
    assert ell1_norm(finite_symbol([1, 1])).exact == 2
    with pytest.raises(TailUnbounded):
        ell1_norm(sampled_symbol([1, 1, 1], GeometricEnvelope(1.0, 1.0)))
    assert ell1_norm(geometric_symbol(1, 2)).infinite


@given(finite_lists, finite_lists)
@settings(max_examples=60, deadline=None)
def test_ell1_submultiplicative(a, b):
    prod = ell1_norm(convolve(a, b, 64))
    bound = ell1_norm(a).exact * ell1_norm(b).exact
    assert prod.exact <= bound


@pytest.mark.parametrize("c,r", [(1.0, 0.5), (2.0, 0.75), (0.5, 0.9)])
def test_envelope_soundness_under_powers(c, r):
    base = geometric_symbol(c, r)
    for k in range(1, 9):
        pk = conv_power(base, k, 129)
        env = symbol_envelope(pk)
        vals = prefix(pk, 128)
        for m, v in enumerate(vals):
            assert abs(v) <= env.at(m) * (1 + 1e-9) + 1e-300


def test_membership_examples(fin, inf):
    assert membership_check(fin, geometric_symbol(1, 2)).overall == "not_member"
    rep = membership_check(fin, geometric_symbol(1, 1))
    assert rep.overall == "member_on_grid" and rep.full_membership is True
    assert membership_check(inf, finite_symbol([5, -2, 7])).passed
    # growth within the default grid but certified divergence beyond it
    slow = membership_check(fin, geometric_symbol(1.0, 1.05))
    assert slow.overall == "not_member" and slow.full_membership is False


def test_membership_per_grade_detail(fin):
    rep = membership_check(fin, geometric_symbol(1, 2))
    by_grade = {c.grade: c.status for c in rep.grades}
    assert by_grade[1] == "finite"  # 2 e^{-1} < 1 still converges at grade 1
    assert all(by_grade[k] == "divergent" for k in range(2, 9))


def test_parse_symbol_round_trip():
    s = parse_symbol({"finite": ["1/2", 3, -1]})
    assert s.entries == (Fraction(1, 2), 3, -1)
    g = parse_symbol({"geometric": {"c": "1/2", "r": 0.25}})
    assert g.c == Fraction(1, 2) and g.r == 0.25
    samp = parse_symbol({"sampled": {"values": [1, 0.5],
                                     "envelope": {"geometric": {"scale": 1.0,
                                                                "ratio": 0.5}},
                                     "extension": None}})
    assert samp.kind is SymbolKind.SAMPLED
    with pytest.raises(ValueError):
        parse_symbol({"finite": [1], "geometric": {}})
    with pytest.raises(ValueError):
        parse_symbol({"geometric": {"c": 1, "r": 1, "bogus": 2}})


def test_zero_symbol_behaviour():
    z = zero_symbol()
    assert z.is_zero and ell1_norm(z).exact == 0
    assert prefix(convolve(z, finite_symbol([1, 2]), 8), 8) == [0] * 8


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(5, 8), Fraction(7, 8),
                               Fraction(1, 100), Fraction(-3, 4)])
def test_exact_geometric_float_prefix_is_bit_identical(r):
    c = Fraction(-7, 3)
    got = float_prefix(geometric_symbol(c, r), 2312)
    assert got.dtype == float
    assert got.tolist() == [float(c * r ** i) for i in range(2312)]


def test_float_geometric_float_prefix_keeps_python_powers():
    # np.power(7/8, i) differs from (7/8)**i in the last bit at some i
    c, r = -1.5, 0.875
    assert float_prefix(geometric_symbol(c, r), 2312).tolist() == \
        [c * r ** i for i in range(2312)]


def test_float_prefix_matches_the_exact_prefix():
    mixed = finite_symbol([Fraction(1, 3), -2, 0.25, 1 + 2j, Fraction(5, 7)])
    assert float_prefix(mixed, 3).dtype == float  # no complex entry in the prefix
    assert float_prefix(mixed, 3).tolist() == [float(v) for v in prefix(mixed, 3)]
    assert float_prefix(mixed, 7).tolist() == [complex(v) for v in prefix(mixed, 7)]
    assert float_prefix(finite_symbol([]), 2).tolist() == [0.0, 0.0]
    huge = finite_symbol([3, 10 ** 400])  # exact, but not representable as a float
    assert float_prefix(huge, 1).tolist() == [3.0]
    with pytest.raises(OverflowError):
        float_prefix(huge, 2)


def test_reads_past_a_sampled_window_raise_where_coeff_does():
    s = sampled_symbol([1, 2, 3])
    for read in (prefix, float_prefix):
        assert list(read(s, 3)) == [1, 2, 3]
        with pytest.raises(OutOfSampledRange, match="index 3 beyond"):
            read(s, 4)
    # a support bound or the zero extension makes the rest readable
    for s in (sampled_symbol([1, 2, 3], support_len=3),
              sampled_symbol([1, 2, 3], extension="zero")):
        assert prefix(s, 5) == [1, 2, 3, 0, 0]
        assert float_prefix(s, 5).tolist() == [1.0, 2.0, 3.0, 0.0, 0.0]
    unread = sampled_symbol([1, -2], GeometricEnvelope(4.0, 0.5), support_len=4)
    with pytest.raises(OutOfSampledRange, match="index 2 beyond"):
        float_prefix(unread, 3)
    env = GeometricEnvelope(4.0, 0.5)
    assert abs_upper_prefix(unread, 6).tolist() == [1.0, 2.0, env.at(2), env.at(3), 0.0, 0.0]
    assert abs_upper_prefix(sampled_symbol([1, -2]), 3).tolist() == [1.0, 2.0, math.inf]


@pytest.mark.parametrize("env,values,first_bad", [
    (GeometricEnvelope(2.0, 0.0), [2, 0, 0.5, 1], 2),          # ratio 0
    (GeometricEnvelope(2.0, 0.0), [3], 0),
    (GeometricEnvelope(1.0, 0.5), [1, 0.5, 0.25, 0.2, 1], 3),  # ratio < 1
    (GeometricEnvelope(1.0, 0.5), [Fraction(1), Fraction(1, 2), Fraction(1, 4),
                                   Fraction(1, 8) * (1 + Fraction(1, 10 ** 8))], 3),
    (GeometricEnvelope(1.0, 2.0), [1, 2, 4, 8.0000001, 100], 3),  # ratio > 1
    (GeometricEnvelope(0.0, 0.5), [0, 0, 1e-3, 1], 2),          # scale 0
    (GeometricEnvelope(1.0, 0.5), [0.5j, 0.5 + 0.5j], 1),
])
def test_envelope_domination_reports_the_first_failing_entry(env, values, first_bad):
    with pytest.raises(ValueError, match=f"fails to dominate entry {first_bad}$"):
        sampled_symbol(values, env)
    sampled_symbol(values[:first_bad], env)


def test_envelope_domination_tolerance_and_overflow():
    env = GeometricEnvelope(1.0, 0.5)
    sampled_symbol([1, 0.5, 0.125 * (1 + 1e-9)], env)  # inside the tolerance
    sampled_symbol([1, 1e200, 1e300, 1e308], GeometricEnvelope(1.0, 1e200))  # inf bounds
    sampled_symbol([1e-301, 1e-301], GeometricEnvelope(0.0, 0.0))


def test_only_symbols_decodes_symbol_storage():
    """Outside symbols.py no module reads the stored window, extension rule or
    support bound of anything but itself (ExponentSequence reads its own),
    nor a symbol's gap or cached float blocks, by attribute or by name."""
    storage = {"entries", "extension", "support_len"}
    caches = {"_floats", "_geo_floats", "_gap"}
    reads = []
    for path in sorted(Path(psop.__file__).parent.glob("*.py")):
        if path.name == "symbols.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (node.attr in caches or (
                    node.attr in storage and not (
                        isinstance(node.value, ast.Name) and node.value.id == "self"))):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in caches:
                reads.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert reads == []


# -- the kept geometric block ---------------------------------------------

MEMO_SYMBOLS = [geometric_symbol(Fraction(-7, 3), r)
                for r in (Fraction(1, 2), Fraction(7, 8), Fraction(-3, 4), Fraction(1, 100))]
MEMO_SYMBOLS += [geometric_symbol(-1.5, 0.875), geometric_symbol(0.5 - 2j, Fraction(3, 4))]


def _fresh(s):
    return geometric_symbol(s.c, s.r)


@pytest.mark.parametrize("s", MEMO_SYMBOLS, ids=lambda s: s.describe())
@pytest.mark.parametrize("first,then", [(2312, 700), (700, 2312), (64, 64)])
def test_geometric_block_reads_equal_fresh_reads(s, first, then):
    s = _fresh(s)
    float_prefix(s, first)
    got, want = float_prefix(s, then), float_prefix(_fresh(s), then)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(got) == then


@pytest.mark.parametrize("s,lengths", [
    (MEMO_SYMBOLS[1], (1, 5, 3)), (MEMO_SYMBOLS[-1], (1, 5, 3)),
    (geometric_symbol(0, 3), (1, 5, 3)), (finite_symbol([1, 2j]), (1, 2, 5)),
    (sampled_symbol([1.0, 0.5], extension="zero"), (1, 2, 5)),
    (finite_symbol([3, 10 ** 400]), (1,)),   # no block: read entry by entry
])
def test_float_prefix_results_are_read_only(s, lengths):
    for N in lengths:
        with pytest.raises(ValueError, match="read-only"):
            float_prefix(s, N)[0] = 1.0


def test_norm_bounds_build_one_geometric_block(fin, monkeypatch):
    from psop import symbols
    from psop.operators import symbol_log_norm_bounds

    built = []
    real = symbols._geometric_block

    def counting(s, N):
        built.append(N)
        return real(s, N)

    monkeypatch.setattr(symbols, "_geometric_block", counting)
    s = geometric_symbol(Fraction(5, 4), Fraction(7, 8))
    bounds = [symbol_log_norm_bounds(fin, s, p) for p in range(1, 9)]
    assert len(built) == 1
    monkeypatch.setattr(symbols, "_geometric_block", real)
    assert bounds == [symbol_log_norm_bounds(fin, _fresh(s), p) for p in range(1, 9)]


@pytest.mark.parametrize("make,message", [
    (lambda: finite_symbol(["1/2"]), "symbol entry 0 is a str, not a number"),
    (lambda: finite_symbol([Fraction(1, 2), 1, [3]]), "symbol entry 2 is a list"),
    (lambda: sampled_symbol([0.5, None], GeometricEnvelope(1.0, 0.5)),
     "symbol entry 1 is a NoneType"),
    (lambda: sampled_symbol([1, "0.25"], extension="zero"), "symbol entry 1 is a str"),
    (lambda: geometric_symbol("1/2", Fraction(1, 2)), "symbol c is a str"),
    (lambda: geometric_symbol(1, "1/2"), "symbol r is a str"),
])
def test_entries_that_are_not_numbers_raise_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


# -- the exact convolution kernel against nested Fraction sums --------------


def _conv_scalar(xs, ys, N):
    """(x*y)_m = sum_{i<=m} x_i y_{m-i} for m < min(N, len(xs) + len(ys) - 1),
    summed as Fractions."""
    xs, ys = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    L = min(N, len(xs) + len(ys) - 1)
    return [sum((xs[i] * ys[m - i] for i in range(len(xs)) if 0 <= m - i < len(ys)),
                Fraction(0)) for m in range(L)]


def _typed(values):
    return [(type(v), v) for v in values]


@given(st.lists(st.one_of(st.integers(-6, 6), rationals), min_size=1, max_size=9),
       st.lists(st.one_of(st.integers(-6, 6), rationals), min_size=1, max_size=9),
       st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_exact_convolve_and_powers_match_nested_fraction_sums(xs, ys, N):
    a, b = finite_symbol(xs), finite_symbol(ys)
    if a.is_zero or b.is_zero:
        return
    ta, tb = xs[:a.bounded_support()], ys[:b.bounded_support()]
    assert _typed(convolve(a, b, N).entries) == _typed(_conv_scalar(ta, tb, N))
    want = tb
    # powers stay exact while their full support fits in N (a truncated power
    # is a sampled symbol, and convolve is exact on finite ones only)
    for k in range(2, 5):
        if k * (len(tb) - 1) + 1 > N:
            break
        want = _conv_scalar(want, tb, N)
        assert _typed(conv_power(b, k, N).entries) == _typed(want)


def _convolve_chain(b, k, N, binary):
    """b^{*k} by convolve alone: k - 1 products upward, or square-and-multiply."""
    if not binary:
        out = b
        for _ in range(k - 1):
            out = convolve(out, b, N)
        return out
    out, sq = None, b
    while k:
        if k & 1:
            out = sq if out is None else convolve(out, sq, N)
        k >>= 1
        if k:
            sq = convolve(sq, sq, N)
    return out


@given(st.lists(st.one_of(st.just(0), st.integers(-6, 6), rationals), max_size=8),
       st.integers(1, 8), st.integers(-3, 12))
@example([0, 2, -1, 3, 0, 0], 4, 0)           # int-only, zeros at both ends, exact fit
@example([Fraction(1, 2), 0, Fraction(-1, 3)], 3, -1)   # one index past the fit
@example([0, 0], 5, 0)                        # a zero symbol
@example([Fraction(3, 2)], 8, 0)              # support 1 fits every N
@settings(max_examples=150, deadline=None)
def test_exact_powers_in_integers_match_nested_sums_and_the_chain(xs, k, offset):
    """Where the power of an exact finite symbol fits, k (s - 1) + 1 <= N,
    conv_power and conv_power_binary equal the nested Fraction sums, types
    included; one index past the fit and beyond, they are the convolve chain
    in kind, entries and envelope."""
    b = finite_symbol(xs)
    s = b.bounded_support()
    N = max(1, k * (s - 1) + 1 + offset)
    tb = xs[:s]
    want = tb
    for _ in range(k - 1):
        want = _conv_scalar(want, tb, N)
    for binary, power in ((False, conv_power), (True, conv_power_binary)):
        got = power(b, k, N)
        if k == 1:
            assert got is b
        elif k * (s - 1) + 1 <= N:
            assert got.kind is SymbolKind.FINITE and _typed(got.entries) == _typed(want)
        else:
            chain = _convolve_chain(b, k, N, binary)
            assert (got.kind, got.envelope, got.support_len) == \
                (chain.kind, chain.envelope, chain.support_len)
            assert _typed(got.entries) == _typed(chain.entries)


def test_exact_powers_count_integer_products_not_convolutions(monkeypatch):
    """An exact finite power that fits makes no convolve call: k - 1 integer
    products for conv_power, floor(log2 k) + popcount(k) - 1 for
    conv_power_binary."""
    calls = {"convolve": 0, "_int_conv": 0}

    def count(name):
        real = getattr(symbols_module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(symbols_module, name, counted)

    count("convolve")
    count("_int_conv")
    a = finite_symbol([Fraction(1, 2), Fraction(-1, 3), 0, Fraction(2, 5), 1,
                       Fraction(1, 7), 0, Fraction(3, 4)])
    conv_power(a, 8, 64)
    assert calls == {"convolve": 0, "_int_conv": 7}
    calls["_int_conv"] = 0
    conv_power_binary(a, 7, 64)
    assert calls == {"convolve": 0, "_int_conv": 4}


# -- what a sampled symbol says past its stored values ----------------------

# envelope shapes: none, ratio < 1, = 1 and > 1, scale 0, ratio 0, exponential
ENVELOPES = [None, GeometricEnvelope(4.0, 0.5), GeometricEnvelope(1.0, 1.0),
             GeometricEnvelope(1.0, 1.5), GeometricEnvelope(0.0, 0.5),
             GeometricEnvelope(1.0, 0.0), ExponentialEnvelope(1.0, 1, -1), FINITE_TAIL]


def _completions(values, env, extension, support_len):
    """The two completions of what the construction inputs leave unknown, as
    (coefficient list, infinite tail) pairs: every unknown coefficient 0, and
    every unknown coefficient at its envelope bound (1 where no geometric
    envelope bounds it).  The tail (scale, ratio) of the second stands for
    the unknown coefficients past the list when no support bound ends them.
    The rule is read off the inputs, not off the symbol."""
    W = len(values)
    zero_past = extension == "zero" or (support_len is not None and support_len <= W) or (
        isinstance(env, GeometricEnvelope) and (env.scale == 0 or (env.ratio == 0 and W > 0))) or (
        env is FINITE_TAIL and support_len is None)
    if zero_past:
        return [(list(values), None)] * 2
    geo = isinstance(env, GeometricEnvelope)
    end = support_len if support_len is not None else W
    bound = [env.at(i) if geo else 1.0 for i in range(W, end)]
    tail = None if support_len is not None else ((env.scale, env.ratio) if geo else (1.0, 1.0))
    return [(list(values), None), (list(values) + bound, tail)]


def _sum(coeffs, tail, growth=1.0):
    """sum_i |c_i| growth**(i + 1) over the list and the geometric tail."""
    total = math.fsum(abs(v) * growth ** (i + 1) for i, v in enumerate(coeffs))
    if tail is None or tail[0] == 0:
        return total
    scale, ratio = tail
    t = ratio * growth
    if t >= 1:
        return math.inf
    return total + scale * growth * t ** len(coeffs) / (1 - t)


def _at_least(upper, exact):
    return upper >= exact * (1 - 1e-12)


@given(st.lists(st.sampled_from([0, 0, Fraction(1, 4), Fraction(-1, 2), 0.125]), max_size=4),
       st.sampled_from(ENVELOPES), st.sampled_from([None, "zero"]),
       st.sampled_from([None, 0, 1, 2, 3, 5, 7]))
@settings(max_examples=300, deadline=None)
def test_sampled_readers_agree_with_both_completions(values, env, extension, support_len):
    """Each reader raises a typed error or answers what holds for both
    completions of the unknown coefficients."""
    try:
        s = sampled_symbol(values, env, extension, support_len)
    except ValueError:
        assume(False)   # an envelope that does not dominate the values
    both = _completions(values, env, extension, support_len)
    assert readable_length(s, math.inf) == (len(values) if both[0] != both[1] else math.inf)
    if s.is_zero:
        assert all(v == 0 for c, tail in both for v in c) and all(t is None for _, t in both)
    for i in range(10):
        try:
            v = coeff(s, i)
        except OutOfSampledRange:
            assert i >= len(values)
            continue
        for c, tail in both:
            assert v == (c[i] if i < len(c) else 0)
            assert tail is None or i < len(c)
    for reader, growth in ((ell1_norm, 1.0), (weighted_beta_sum_finite, math.e)):
        try:
            total = reader(s)
        except (TailUnbounded, OutOfSampledRange):
            continue
        for c, tail in both:
            assert _at_least(total.upper, _sum(c, tail, growth))
    try:
        env_out = symbol_envelope(s)
    except TailUnbounded:
        return
    bounds = abs_upper_prefix(s, 10)
    for c, tail in both:
        full = c + ([tail[0] * tail[1] ** i for i in range(len(c), 10)] if tail else [])
        for i in range(10):
            v = abs(full[i]) if i < len(full) else 0
            assert bounds[i] >= v * (1 - 1e-12)
            if isinstance(env_out, GeometricEnvelope):
                assert env_out.at(i) * (1 + 1e-9) >= v
            elif env_out is FINITE_TAIL and i >= len(values):
                assert v == 0


def test_zero_values_with_a_support_bound_past_them_are_not_zero():
    assert not sampled_symbol([0], GeometricEnvelope(1.0, 0.5), support_len=3).is_zero
    assert not sampled_symbol([0], support_len=3).is_zero
    # a truncated product whose stored window is all zero: z^2 * z^2 = z^4
    assert not convolve(finite_symbol([0, 0, 1]), finite_symbol([0, 0, 1]), 3).is_zero
    for zero in (sampled_symbol([0, 0], extension="zero"), sampled_symbol([0], support_len=1),
                 sampled_symbol([0], GeometricEnvelope(0.0, 0.5), support_len=3),
                 sampled_symbol([0], GeometricEnvelope(1.0, 0.0))):
        assert zero.is_zero


def test_ell1_norm_does_not_read_the_gap_as_zeros():
    with pytest.raises(TailUnbounded):
        ell1_norm(sampled_symbol([Fraction(1, 4)], support_len=3))
    with_env = sampled_symbol([Fraction(1, 4)], GeometricEnvelope(1.0, 0.1), support_len=3)
    assert ell1_norm(with_env).upper >= 0.25 + 0.1 + 0.01


def test_a_gap_without_an_envelope_has_no_envelope_or_membership():
    s = sampled_symbol([Fraction(1, 4)], support_len=3)
    with pytest.raises(TailUnbounded):
        symbol_envelope(s)
    assert membership_check(finite_type_space(), s).overall != "member_on_grid"


def test_weighted_beta_sum_bounds_the_gap_by_the_envelope():
    s = sampled_symbol([Fraction(1, 4)], GeometricEnvelope(1.0, 0.1), support_len=3)
    assert weighted_beta_sum_finite(s).upper >= \
        0.25 * math.e + 0.1 * math.e ** 2 + 0.01 * math.e ** 3


def test_a_finite_tail_envelope_leaves_no_gap():
    """The envelope {"finite": ...} says every coefficient past the values is
    zero, and every reader agrees."""
    s = sampled_symbol([Fraction(1, 4)], FINITE_TAIL)
    assert coeff(s, 1) == 0 and prefix(s, 3) == [Fraction(1, 4), 0, 0]
    assert ell1_norm(s).upper == 0.25 and not ell1_norm(s).infinite
    assert readable_length(s, math.inf) == math.inf and s.bounded_support() == 1
    assert symbol_envelope(s) is FINITE_TAIL
    assert membership_check(finite_type_space(), s).overall == "member_on_grid"


def test_a_finite_tail_envelope_does_not_end_a_support_bound_past_the_values():
    """FINITE_TAIL bounds no coefficient: with a support bound past the
    values, the coefficients between them stay unknown."""
    # a truncated product of z^0 + z + z^2 and 1/2: the third coefficient is 1/2
    s = convolve(finite_symbol([1, 1, 1]),
                 sampled_symbol([Fraction(1, 2)], GeometricEnvelope(1.0, 0.0)), 2)
    assert s.bounded_support() == 3
    with pytest.raises(OutOfSampledRange):
        coeff(s, 2)
    assert ell1_norm(s).upper >= 1.5
    config = parse_symbol({"sampled": {"values": ["1/4"], "envelope": {"finite": None},
                                       "support_len": 3}})
    with pytest.raises(OutOfSampledRange):
        coeff(config, 1)
    for reader in (ell1_norm, symbol_envelope):
        with pytest.raises(TailUnbounded):
            reader(config)
    assert membership_check(finite_type_space(), config).overall == "inconclusive"


def test_extension_zero_is_stored_as_the_support_bound():
    s = sampled_symbol([1, 2, 0], extension="zero")
    assert s == sampled_symbol([1, 2, 0], support_len=3) and s.bounded_support() == 2
    # the smaller of the two bounds is kept
    assert sampled_symbol([1, 2], extension="zero", support_len=5).bounded_support() == 2
    assert not hasattr(s, "extension")
    with pytest.raises(ValueError, match="unknown sampled extension 'hold'"):
        sampled_symbol([1], extension="hold")


# -- float_power_rows against the ConvPowerTable chain, bit for bit ----------


def _chain_rows(theta, K, N):
    """(|coefficients|, readable length) of each power of the chain
    ConvPowerTable(float_symbol(theta), N), read the way the row builder
    documents: a power with a gap on its window, a bounded support whole,
    and a geometric law on its first N coefficients."""
    from psop.symbols import float_symbol

    table = ConvPowerTable(float_symbol(theta), N)
    out = []
    for k in range(1, K + 1):
        pk = table.power(k)
        window = readable_length(pk, math.inf)
        sup = pk.bounded_support()
        n = window if window < math.inf else (N if sup is None else sup)
        out.append((np.abs(float_prefix(pk, n)), window))
    return out


_small_floats = st.integers(-8, 8).map(lambda v: v / 8)
_floats = st.floats(-1.0, 1.0, allow_subnormal=False)
_row_bases = st.one_of(
    st.lists(rationals, min_size=0, max_size=7).map(finite_symbol),
    st.lists(_small_floats, min_size=1, max_size=7).map(finite_symbol),
    st.lists(_floats, min_size=1, max_size=12).map(finite_symbol),
    # real entries ahead of complex ones: the chain reads the real head as floats
    st.tuples(st.lists(_floats, min_size=1, max_size=8),
              st.lists(st.builds(complex, _floats, _floats), min_size=1, max_size=4)).map(
        lambda parts: finite_symbol(parts[0] + parts[1])),
    st.lists(st.one_of(_small_floats, st.builds(complex, _small_floats, _small_floats)),
             min_size=1, max_size=6).map(finite_symbol),
    # a product whose top entry underflows: the next power reads its trimmed support
    st.just(finite_symbol([1.0, 1e-200])),
    st.builds(geometric_symbol, st.fractions(-2, 2, max_denominator=8),
              st.sampled_from([Fraction(-7, 8), Fraction(-1, 2), Fraction(1, 3),
                               Fraction(7, 8), Fraction(5, 4)])),
    st.builds(geometric_symbol, st.sampled_from([-1.5, 0.25, 2.0]),
              st.sampled_from([-0.75, 0.5, 0.9])),
    st.lists(rationals, min_size=1, max_size=6).map(lambda v: sampled_symbol(v, extension="zero")),
    st.integers(1, 40).map(lambda W: sampled_symbol(
        [Fraction((-1) ** i, 2 ** (i + 1)) for i in range(W)], GeometricEnvelope(1.0, 0.5))),
    st.just(zero_symbol()),
    st.just(geometric_symbol(0, Fraction(1, 2))),
)


@given(_row_bases, st.integers(1, 7), st.integers(1, 48))
# the third power's envelope scale times l1(theta) underflows: the fourth
# power keeps its gap from index 1 on, where its coefficient is nonzero
@example(finite_symbol([0.0, 1.0774210117873687e-85]), 4, 1)
@settings(max_examples=250, deadline=None)
def test_float_power_rows_are_the_chain_bit_for_bit(theta, K, N):
    from psop.symbols import float_power_rows

    try:
        want = _chain_rows(theta, K, N)
    except OutOfSampledRange:
        with pytest.raises(OutOfSampledRange):
            float_power_rows(theta, K, N)
        return
    rows, windows = float_power_rows(theta, K, N)
    assert rows.shape[0] == K and rows.shape[1] >= 1
    assert windows == [w for _, w in want]
    for row, (mags, _) in zip(rows, want):
        n = len(mags)
        assert row[:n].tobytes() == mags[:len(row)].tobytes()
        assert not row[n:].any() and not mags[len(row):].any()


def _bits(values):
    return [(type(v), repr(v)) for v in values]


@given(_row_bases, st.integers(1, 7), st.integers(1, 48))
@settings(max_examples=150, deadline=None)
def test_conv_power_is_the_power_table_bit_for_bit(theta, K, N):
    """conv_power's upward convolve calls give ConvPowerTable(theta, N)'s
    powers, bit for bit: kind, entries, envelope and support bound."""
    table = ConvPowerTable(theta, N)
    for k in range(1, K + 1):
        try:
            want = table.power(k)
        except (OutOfSampledRange, TailUnbounded) as err:
            with pytest.raises(type(err)):
                conv_power(theta, k, N)
            return
        got = conv_power(theta, k, N)
        assert (got.kind, got.envelope, got.support_len, got.bounded_support()) == \
            (want.kind, want.envelope, want.support_len, want.bounded_support())
        assert _bits(got.entries) == _bits(want.entries)


_prefix_bases = st.one_of(
    st.builds(geometric_symbol,
              st.sampled_from([Fraction(3, 2), Fraction(-5, 4), 2.0, complex(1, -0.5), 0.75j]),
              st.sampled_from([Fraction(-7, 8), Fraction(1, 2), -0.75, 0.9])),
    # sampled symbols with no gap: their stored values are the whole support
    st.lists(st.one_of(rationals, _floats), min_size=1, max_size=12).map(
        lambda v: sampled_symbol(v, extension="zero")),
    st.lists(_floats, min_size=1, max_size=12).map(
        lambda v: sampled_symbol(v, GeometricEnvelope(1.0, 1.0), support_len=len(v))),
)


@given(_prefix_bases, st.integers(1, 8), st.integers(12, 80), st.integers(1, 64))
@example(geometric_symbol(Fraction(3, 2), Fraction(-7, 8)), 4, 12, 1)
@example(geometric_symbol(Fraction(-3, 2), Fraction(7, 8)), 32, 1173, 1139)   # the sweep's
@settings(max_examples=200, deadline=None)
def test_power_rows_on_fewer_columns_are_their_prefix_bit_for_bit(theta, K, J, extra):
    """Row k of the power rows at truncation J is the first J columns of row
    k at any larger truncation: each output i < J is one dot over the same
    i + 1 products.  Not below J = 12: np.convolve sums a full overlap with
    a kernel of at most 11 entries in an unrolled loop, in another order
    than the dot it runs at the ends."""
    from psop.symbols import float_power_rows

    def head(rows):
        out = np.zeros((K, J))
        out[:, :min(J, rows.shape[1])] = rows[:, :J]
        return out

    short, _ = float_power_rows(theta, K, J)
    whole, _ = float_power_rows(theta, K, J + extra)
    assert head(short).tobytes() == head(whole).tobytes()


def test_conv_power_of_a_high_power_returns_and_both_names_need_k_at_least_one():
    base = finite_symbol([0.5, 0.5])
    got = conv_power(base, 1200, 64)
    assert got.kind is SymbolKind.SAMPLED and len(got.entries) == 64
    assert prefix(conv_power_binary(base, 1200, 64), 64) == pytest.approx(prefix(got, 64))
    for power in (conv_power, conv_power_binary):
        for k in (0, -1):
            with pytest.raises(ValueError, match="powers start at k = 1"):
                power(base, k, 8)


def test_a_nonzero_value_below_the_float_range_keeps_a_positive_envelope():
    """float(Fraction(1, 10**400)) is 0.0, yet its product with a geometric
    law has no zero coefficient: the envelope scale stays positive, from
    the value's log-space term, or the least positive float below that."""
    tiny = Fraction(1, 10 ** 400)
    out = convolve(finite_symbol([tiny]), geometric_symbol(1.0, 0.5), 8)
    assert out.envelope == GeometricEnvelope(math.ulp(0.0), 0.5)
    assert not out.is_zero and out.bounded_support() is None
    out = convolve(finite_symbol([0, tiny]), geometric_symbol(1.0, Fraction(1, 10 ** 300)), 8)
    assert out.envelope.scale == pytest.approx(1e-100, rel=1e-12)
    # a value whose float is nonzero keeps its product weight
    out = convolve(finite_symbol([Fraction(1, 4)]), geometric_symbol(1.0, 0.5), 8)
    assert out.envelope == GeometricEnvelope(0.25, 0.5)


def test_float_power_rows_cover_truncated_and_whole_powers():
    from psop.symbols import float_power_rows

    rows, windows = float_power_rows(finite_symbol([1, Fraction(-1, 2)]), 5, 3)
    assert windows == [math.inf, math.inf, 3, 3, 3]
    assert rows[2].tolist() == [1.0, 1.5, 0.75]
    rows, windows = float_power_rows(geometric_symbol(Fraction(1, 2), Fraction(-1, 2)), 2, 4)
    assert windows == [math.inf, 4]
    assert rows.tolist() == [[0.5, 0.25, 0.125, 0.0625], [0.25, 0.25, 0.1875, 0.125]]
    rows, windows = float_power_rows(zero_symbol(), 3, 8)
    assert rows.shape == (3, 1) and not rows.any() and windows == [math.inf] * 3


def test_float_power_rows_of_an_entry_past_the_float_range_is_tail_unbounded():
    from psop.symbols import float_power_rows

    with pytest.raises(TailUnbounded, match="overflows a float"):
        float_power_rows(finite_symbol([Fraction(10) ** 400]), 4, 16)


# -- sum_exp_rows against sum_exp, row by row, bit for bit --------------------


def _same_float(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


_log_terms = st.one_of(
    st.floats(-900.0, 50.0),
    st.sampled_from([-math.inf, -745.13, -745.14, -746.0, -746.0000001, 0.0]),
)


def _full_log_sum(row):
    """The row sum as the sweeps took it before the early exit: every term
    from -746 below the maximum up exponentiated and summed with fsum."""
    top = max(row)
    if top == -math.inf:
        return top
    kept = [t - top for t in row if not t - top < -746.0]
    return top + math.log(math.fsum(map(math.exp, kept)))


@given(st.integers(1, 40).flatmap(lambda width: st.lists(
    st.lists(_log_terms, min_size=width, max_size=width), min_size=1, max_size=6)))
@settings(max_examples=300, deadline=None)
def test_sum_exp_rows_are_sum_exp_row_by_row(rows):
    """Both are the full sum, written out in _full_log_sum, bit for bit."""
    from psop.numerics import sum_exp, sum_exp_rows

    got = sum_exp_rows(np.array(rows))
    assert len(got) == len(rows)
    for row, g in zip(rows, got):
        assert _same_float(g, sum_exp(row)[1])
        assert _same_float(g, _full_log_sum(row))


@pytest.mark.parametrize("row,want", [
    ([-math.inf, -math.inf, -math.inf], -math.inf),
    ([-1.0, math.inf, -math.inf], math.inf),
    ([-1.0, math.nan, 2.0], math.nan),
    ([math.nan, math.inf], math.nan),
    ([0.0, -745.13], 0.0),
    ([0.0, -745.14, -746.0, -800.0], 0.0),
])
def test_sum_exp_rows_special_rows(row, want):
    """All -inf, a +inf or NaN term, and terms by the underflow edge: each
    row as sum_exp gives it, next to an ordinary row, with no RuntimeWarning
    (tier-1 turns numpy's warnings into errors)."""
    from psop.numerics import sum_exp, sum_exp_rows

    got = sum_exp_rows(np.array([row, [0.0] * len(row)]))
    assert _same_float(got[0], want) and _same_float(got[0], sum_exp(row)[1])
    assert _same_float(got[1], sum_exp([0.0] * len(row))[1])


def test_sum_exp_drops_only_terms_whose_exp_is_zero():
    """exp(-745.13) is the smallest subnormal and exp(-745.14) is +0.0; the
    drop below -746 changes no fsum: a sum of one term at 0 and many just
    above the cut equals the full scalar sum."""
    from psop.numerics import sum_exp

    assert math.exp(-745.13) > 0.0 and math.exp(-745.14) == 0.0
    terms = [0.0] + [-745.13] * 5 + [-745.99] * 3 + [-746.5] * 4
    full = math.fsum(math.exp(t) for t in terms)
    assert sum_exp(terms)[1] == math.log(full)


def _just_under_half_ulp_of_one() -> float:
    """x with exp(x) below 2^-53 by less than e^-65: 1 + exp(x) rounds down
    to 1, but one more term near e^-64 takes it past the midpoint."""
    x = math.log(2.0 ** -53) - 1e-12
    while 2.0 ** -53 - math.exp(x) >= math.exp(-65.0):
        x = math.nextafter(x, math.inf)
    assert 0.0 < 2.0 ** -53 - math.exp(x)
    return x


def test_early_exit_falls_back_where_the_far_terms_cross_a_midpoint():
    """The terms below -64 pass 1 + exp(x) over the midpoint 1 + 2^-53:
    the sum of the near terms alone would be 1.0 and its log 0.0, so the
    bound on the far terms moves the rounded sum and they are summed too."""
    from psop.numerics import sum_exp, sum_exp_rows

    x = _just_under_half_ulp_of_one()
    assert math.fsum([1.0, math.exp(x)]) == 1.0
    row = [0.0, x] + [math.nextafter(-64.0, -math.inf)] * 3 + [-700.0, -math.inf]
    want = _full_log_sum(row)
    assert want == math.log1p(2.0 ** -52) > 0.0
    assert sum_exp(row)[1] == want
    assert sum_exp_rows(np.array([row, [0.0] * len(row)]))[0] == want
    # the same row with its far terms left out and bounded: not settled
    assert sum_exp_rows(np.array([row[:2]]), np.array([math.log(3e-28)])) is None
    # and settled where the bound is far below the half ulp
    assert sum_exp_rows(np.array([[0.0, -1.0]]), np.array([-80.0]))[0] == \
        _full_log_sum([0.0, -1.0])


def test_unseen_terms_leave_a_row_of_minus_inf_unsettled():
    """Its max may be among the unseen terms, unless nothing is unseen;
    a +inf or NaN row is its own sum, whatever is unseen."""
    from psop.numerics import sum_exp_rows

    rows = np.array([[-math.inf, -math.inf], [0.0, -2.0]])
    assert sum_exp_rows(rows, np.array([-90.0, -90.0])) is None
    assert sum_exp_rows(rows, np.array([-math.inf, -90.0]))[0] == -math.inf
    got = sum_exp_rows(np.array([[math.inf, 0.0], [math.nan, 0.0]]), np.array([0.0, 0.0]))
    assert got[0] == math.inf and math.isnan(got[1])
