import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psop import (
    GeometricEnvelope,
    OutOfSampledRange,
    TailUnbounded,
    coeff,
    conv_power,
    convolve,
    delta_symbol,
    ell1_norm,
    finite_symbol,
    geometric_symbol,
    membership_check,
    parse_symbol,
    sampled_symbol,
    zero_symbol,
)
from psop.symbols import (
    ConvPowerTable,
    SymbolKind,
    abs_upper_prefix,
    conv_power_binary,
    float_prefix,
    prefix,
    symbol_envelope,
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
    assert table.exact


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
