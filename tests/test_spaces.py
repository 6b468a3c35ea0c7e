import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psop
from psop import (
    DualCertificate,
    Element,
    GeometricEnvelope,
    TailUnbounded,
    basis_element,
    dual_certificate_check,
    finite_type_space,
    infinite_type_space,
    nuclearity_check,
    seminorm,
    seminorms,
    stability_constant,
    weight,
)
from psop.numerics import NEG_INF, exp_guarded, log_abs, logaddexp, sum_exp
from psop.spaces import (
    FINITE_TAIL,
    ExponentialEnvelope,
    TailedValue,
    convolve_finite,
    correlate_envelope,
    decay_compensation_constant,
    explicit_alpha,
    linear_alpha,
    log_alpha,
    root_alpha,
    fit_dual_certificate,
    geometric_tail_sum,
    tail_majorant,
)
from psop.symbols import (
    Symbol,
    delta_symbol,
    finite_symbol,
    geometric_symbol,
    sampled_symbol,
    symbol_envelope,
)


def test_weight_examples(fin, inf):
    assert weight(fin, 3, 2) == pytest.approx(math.exp(-1.5), rel=1e-15)
    assert weight(inf, 2, 3) == pytest.approx(math.exp(6), rel=1e-15)
    root2 = finite_type_space(root_alpha(2))
    assert weight(root2, 4, 1) == pytest.approx(math.exp(-2), rel=1e-15)


def test_weight_kothe_axioms(fin, inf):
    for space in (fin, inf, finite_type_space(root_alpha(3)),
                  infinite_type_space(log_alpha())):
        for n in range(1, 40):
            prev = 0.0
            for k in range(1, 9):
                w = weight(space, n, k)
                assert w > 0
                assert w >= prev  # nondecreasing in the grade
                prev = w


def test_seminorm_basis_vector_equals_weight(fin, inf):
    for space in (fin, inf):
        for n in (1, 3, 17):
            for k in (1, 2, 5):
                tv = seminorm(space, basis_element(n, 32), k)
                assert tv.value == weight(space, n, k)
                assert tv.tail == 0.0


def test_seminorm_geometric_ones_tail(fin):
    # x_n = 1 for n <= N with the constant-envelope certificate: the norm
    # approaches the full geometric sum as N grows
    target = math.exp(-1) / (1 - math.exp(-1))
    prev_gap = None
    for N in (10, 25, 60):
        x = Element(tuple([1.0] * N), GeometricEnvelope(1.0, 1.0))
        tv = seminorm(fin, x, 1)
        assert tv.value <= target <= tv.value + tv.tail + 1e-15
        gap = target - tv.value
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


def test_seminorm_finite_sum_infinite_type(inf):
    x = Element((1, 1))
    tv = seminorm(inf, x, 1)
    assert tv.value == pytest.approx(math.e + math.e ** 2, rel=1e-15)
    assert tv.tail == 0.0


def test_seminorm_tail_unbounded_for_bounded_tail_on_infinite_type(inf):
    x = Element(tuple([1.0] * 8), GeometricEnvelope(1.0, 1.0))
    with pytest.raises(TailUnbounded):
        seminorm(inf, x, 1)


@given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=1, max_size=12),
       st.lists(st.fractions(min_value=-4, max_value=4), min_size=1, max_size=12),
       st.fractions(min_value=-4, max_value=4))
@settings(max_examples=60, deadline=None)
def test_seminorm_subadditive_and_homogeneous(xs, ys, c):
    space = finite_type_space()
    n = max(len(xs), len(ys))
    xs = xs + [Fraction(0)] * (n - len(xs))
    ys = ys + [Fraction(0)] * (n - len(ys))
    x, y = Element(tuple(xs)), Element(tuple(ys))
    both = Element(tuple(a + b for a, b in zip(xs, ys)))
    scaled = Element(tuple(c * a for a in xs))
    for k in (1, 3):
        nx = seminorm(space, x, k).value
        ny = seminorm(space, y, k).value
        ns = seminorm(space, both, k).value
        assert ns <= (nx + ny) * (1 + 1e-12) + 1e-300
        nh = seminorm(space, scaled, k).value
        assert nh == pytest.approx(abs(c) * nx, rel=1e-12, abs=1e-300)


def test_seminorm_homogeneity_high_precision_spot(fin):
    # one case replayed at 50 digits: the float path sits within 1e-12
    xs = (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 9))
    c = Fraction(5, 3)
    with mpmath.workdps(50):
        exact = sum(abs(v) * mpmath.e ** (-(i + 1) / mpmath.mpf(2))
                    for i, v in enumerate(xs))
        got = seminorm(fin, Element(xs), 2).value
        assert abs(got - exact) < 1e-14 * exact
        got_scaled = seminorm(fin, Element(tuple(c * v for v in xs)), 2).value
        assert abs(got_scaled - abs(c) * exact) < 1e-13 * exact


def _seminorm_per_grade(space, x, k):
    """The grade-k seminorm as its own loop over the entries computed it
    before the grades shared one reduction: the reference for seminorms."""
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
        _, log_wsum = sum_exp(logw)
        log_tail = logaddexp(log_tail, math.log(residual) + log_wsum)
        tail = exp_guarded(log_tail)
    return TailedValue(value, log_value, tail, log_tail)


def _fields(tv):
    return [repr(getattr(tv, f)) for f in ("value", "log_value", "tail", "log_tail")]


_ENTRY = st.one_of(
    st.sampled_from([0, 0.0, -0.0, Fraction(0), 0j]),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6),
    st.floats(min_value=-1e300, max_value=1e300),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
_TAIL = st.one_of(
    st.just(FINITE_TAIL),
    st.builds(GeometricEnvelope, st.floats(0.0, 4.0), st.floats(0.0, 1.2)),
    st.builds(ExponentialEnvelope, st.floats(0.0, 4.0), st.integers(1, 6),
              st.sampled_from([-1, 1])))
_SPACE = st.builds(lambda infinite, alpha: (infinite_type_space if infinite
                                           else finite_type_space)(alpha),
                   st.booleans(), st.sampled_from([linear_alpha(), root_alpha(2)]))


@given(_SPACE, st.lists(_ENTRY, max_size=12), _TAIL,
       st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
       st.lists(st.integers(1, 6), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_seminorms_keep_the_per_grade_bits(space, entries, tail, residual, ks):
    """Each grade of seminorms gives the per-grade loop's fields bit for
    bit, and an unbounded tail raises the first grade's error in ks order."""
    x = Element(tuple(entries), tail, space, residual)
    try:
        want = [_fields(_seminorm_per_grade(space, x, k)) for k in ks]
    except TailUnbounded as exc:
        with pytest.raises(TailUnbounded) as got:
            seminorms(space, x, ks)
        assert str(got.value) == str(exc)
        return
    assert [_fields(tv) for tv in seminorms(space, x, ks)] == want
    assert [_fields(seminorm(space, x, k)) for k in ks] == want


def test_stability_examples():
    lin = stability_constant(linear_alpha(), 1000)
    assert lin.bound == 2 and lin.certified and lin.prefix_sup == 2.0
    rt = stability_constant(root_alpha(2), 1000)
    assert rt.bound == 2 and rt.certified
    assert rt.prefix_sup == pytest.approx(math.sqrt(2), rel=1e-12)
    expl = stability_constant(explicit_alpha([2.0 ** n for n in range(1, 17)], None), 16)
    assert not expl.certified
    assert expl.prefix_sup == 256.0  # grows with the prefix length


def test_stability_prefix_never_exceeds_analytic_bound():
    for alpha in (linear_alpha(), root_alpha(2), root_alpha(5)):
        for N in (10, 100, 1000):
            cert = stability_constant(alpha, N)
            assert cert.prefix_sup <= cert.bound + 1e-12


def test_stability_skips_zero_indices():
    cert = stability_constant(explicit_alpha([0.0, 1.0, 2.0, 3.0], "arithmetic"), 4)
    assert cert.skipped == (1,)


def test_nuclearity_infinite_linear(inf):
    cert = nuclearity_check(inf)
    assert cert.nuclear and cert.certified and cert.m1 == 1
    assert cert.partial_sum <= cert.decay_sum
    assert cert.decay_sum <= math.e / (math.e - 1)
    assert cert.decay_sum == pytest.approx(1 / (math.e - 1), rel=1e-12)


def test_nuclearity_finite_linear_and_log(fin):
    assert nuclearity_check(fin).nuclear
    log_space = finite_type_space(log_alpha())
    cert = nuclearity_check(log_space)
    assert not cert.nuclear and cert.certified
    assert cert.ratio_max == pytest.approx(1.0, abs=1e-3)  # ln n / ln(n+1) -> 1


def test_nuclearity_root_and_log_infinite():
    cert = nuclearity_check(infinite_type_space(root_alpha(2)))
    assert cert.nuclear and cert.m1 == 1
    assert cert.decay_sum >= cert.partial_sum
    cert = nuclearity_check(infinite_type_space(log_alpha()))
    assert cert.nuclear and cert.m1 == 2
    assert cert.decay_sum == pytest.approx(math.pi ** 2 / 6 - 1, rel=1e-3)


@pytest.mark.parametrize("build", [
    lambda: finite_type_space(), lambda: infinite_type_space(),
    lambda: infinite_type_space(linear_alpha()), lambda: finite_type_space(root_alpha(3)),
    lambda: infinite_type_space(explicit_alpha([1, 2, 4, 8], "arithmetic")),
], ids=["finite", "infinite", "infinite_alpha_given", "finite_root3", "explicit"])
def test_nuclearity_check_is_memoised_per_space_value(build):
    a, b = build(), build()
    assert a is not b and a == b
    assert nuclearity_check(a) is nuclearity_check(b)
    assert nuclearity_check(a, 64) is nuclearity_check(b, 64)
    assert nuclearity_check(a, 64) is not nuclearity_check(a)


# (repr(c0), m0) recorded before the fit read log|beta| once per index
FIT_BETAS = {
    "finite": finite_symbol([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)]),
    "geometric": geometric_symbol(Fraction(3, 2), Fraction(7, 8)),
    "geometric_small": geometric_symbol(Fraction(-5, 4), Fraction(1, 100)),
    "geometric_float": geometric_symbol(0.75, -0.5),
    "delta": delta_symbol(Fraction(3, 4)),
    "sampled": sampled_symbol([0.5, -0.25, 0.125, 0.0625], GeometricEnvelope(1.0, 0.5)),
    "sampled_zero": sampled_symbol([Fraction(1, 3), 0, Fraction(2, 9)], extension="zero"),
    # ratio 2 outgrows every finite-type target exp(-alpha_n / m0)
    "geometric_ratio_2": geometric_symbol(1, 2),
}
FIT_SPACES = {"finite": finite_type_space(), "infinite": infinite_type_space(),
              "finite_root2": finite_type_space(root_alpha(2))}
PINNED_FITS = [
    ("finite", "finite", ("5.021384230801939", 1)),
    ("finite", "geometric", ("1.6997226796019393", 8)),
    ("finite", "geometric_small", ("3.3978522855772044", 1)),
    ("finite", "geometric_float", ("1.2365409530263327", 2)),
    ("finite", "delta", ("2.0387113713463227", 1)),
    ("finite", "sampled", ("0.8243606353508884", 2)),
    ("finite", "sampled_zero", ("4.463452649601723", 1)),
    ("finite", "geometric_ratio_2", None),
    ("infinite", "finite", ("0.1839397205859051", 1)),
    ("infinite", "geometric", ("0.5518191617577154", 1)),
    ("infinite", "geometric_small", ("0.4598493014647627", 1)),
    ("infinite", "geometric_float", ("0.2759095808788577", 1)),
    ("infinite", "delta", ("0.2759095808788577", 1)),
    ("infinite", "sampled", ("0.1839397205859051", 1)),
    ("infinite", "sampled_zero", ("0.12262648039060338", 1)),
    ("finite_root2", "finite", ("1.413058418509936", 1)),
    ("finite_root2", "geometric", ("11.147490337850801", 1)),
    ("finite_root2", "geometric_small", ("3.3978522855772044", 1)),
    ("finite_root2", "geometric_float", ("2.0387113713463227", 1)),
    ("finite_root2", "delta", ("2.0387113713463227", 1)),
    ("finite_root2", "sampled", ("1.3591409142308817", 1)),
    ("finite_root2", "sampled_zero", ("1.2560519275643873", 1)),
]


@pytest.mark.parametrize("space,beta,want", PINNED_FITS)
def test_fit_dual_certificate_values_are_pinned(space, beta, want):
    cert = fit_dual_certificate(FIT_SPACES[space], FIT_BETAS[beta])
    assert (None if cert is None else (repr(cert.c0), cert.m0)) == want


def _fit_per_index(space, beta, N):
    """fit_dual_certificate as it read beta before: one coeff_abs_upper call
    per index."""
    env = symbol_envelope(beta)
    log_bounds = []
    for n in range(1, N + 1):
        a, b = space.alpha.value(n), beta.coeff_abs_upper(n - 1)
        if b > 0:
            log_bounds.append((a, log_abs(b)))
    for m0 in range(1, 33):
        if isinstance(env, GeometricEnvelope) and env.ratio > 0:
            if not space.is_finite_type:
                step = -m0 * space.alpha.increment_lower(N)
            else:
                step = space.alpha.increment_upper(N) / m0
            if math.log(env.ratio) + step > 0:
                continue
        elif isinstance(env, ExponentialEnvelope):
            if (env.sign > 0) == space.is_finite_type or env.grade > m0:
                continue
        log_c0 = NEG_INF
        for a, log_b in log_bounds:
            rate = m0 * a if not space.is_finite_type else -a / m0
            log_c0 = max(log_c0, log_b - rate)
        if log_c0 == NEG_INF:
            return DualCertificate(1e-300, m0)
        c0 = exp_guarded(log_c0 + 1e-12)
        if math.isfinite(c0):
            return DualCertificate(c0, m0)
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TailUnbounded, ValueError) as e:
        return type(e)


_REALS = st.floats(-2, 2)
_FIT_BETAS = st.one_of(
    st.lists(st.fractions(-3, 3, max_denominator=64), max_size=12).map(finite_symbol),
    st.builds(geometric_symbol,
              st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=16), _REALS),
              st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=16), _REALS)),
    st.lists(st.complex_numbers(max_magnitude=2), min_size=1, max_size=8).map(finite_symbol),
    # a gap past the window under a geometric, an exponential or no envelope
    st.builds(lambda units, env: sampled_symbol(
                  [u * 0.5 ** i for i, u in enumerate(units)], env),
              st.lists(st.floats(-1, 1), min_size=1, max_size=20),
              st.sampled_from([GeometricEnvelope(1.0, 0.5), ExponentialEnvelope(1.0, 1, 1),
                               ExponentialEnvelope(1.0, 2, -1), None])),
)


@given(_FIT_BETAS, st.booleans(), st.sampled_from([64, 256, 512]))
@settings(max_examples=120, deadline=None)
def test_fit_dual_certificate_equals_the_per_index_read(beta, finite_type, N):
    space = finite_type_space() if finite_type else infinite_type_space()
    got = _outcome(fit_dual_certificate, space, beta, N)
    want = _outcome(_fit_per_index, space, beta, N)
    if isinstance(want, DualCertificate):
        assert isinstance(got, DualCertificate)
        assert (got.c0.hex(), got.m0) == (want.c0.hex(), want.m0)
    else:
        assert got == want


@pytest.mark.parametrize("beta", [finite_symbol([Fraction(1, 2), Fraction(-1, 4), 1]),
                                  geometric_symbol(Fraction(3, 4), Fraction(1, 2))],
                         ids=lambda s: s.describe())
def test_fit_dual_certificate_reads_no_coefficient_one_at_a_time(monkeypatch, beta):
    calls = []
    upper = Symbol.coeff_abs_upper

    def counted(self, i):
        calls.append(i)
        return upper(self, i)

    monkeypatch.setattr(Symbol, "coeff_abs_upper", counted)
    assert fit_dual_certificate(infinite_type_space(), beta, 256) is not None
    assert calls == []


def test_dual_bounds_survive_a_window_entry_too_large_for_a_float(inf):
    """An entry past the float range on the window: the fit still reads the
    envelope values past it, and the check reports instead of overflowing."""
    beta = sampled_symbol([Fraction(10) ** 400, Fraction(1, 2)], ExponentialEnvelope(1.0, 1, 1))
    assert fit_dual_certificate(inf, beta, 64) is None
    res = dual_certificate_check(inf, beta, DualCertificate(1.0, 1), 64)
    assert not res.passed and res.witness == 1


def test_decay_compensation_constant_linear(fin):
    for k in (1, 4, 8):
        dk = decay_compensation_constant(fin, k, 10_000)
        assert dk == pytest.approx(2 * k / math.e, rel=1e-12)


def test_dual_certificate_examples(fin, inf):
    ok = dual_certificate_check(inf, geometric_symbol(1, 1), DualCertificate(1.0, 1), 64)
    assert ok.passed
    c = math.exp(-0.5)
    ok = dual_certificate_check(fin, geometric_symbol(c, c), DualCertificate(1.0, 2), 64)
    assert ok.passed  # equality at every index
    bad = dual_certificate_check(fin, geometric_symbol(1, 1), DualCertificate(1.0, 5), 64)
    assert not bad.passed and bad.witness == 1


def test_tail_majorant_shapes(fin, inf):
    # exponential envelope against匹 weights: decaying dual-type on finite
    cert = ExponentialEnvelope(1.0, 2, -1)
    val, _ = tail_majorant(fin, cert, 10, 3)
    # sum_{n>=10} e^{-n/2} e^{-n/3} = sum e^{-5n/6}
    want = math.exp(-50 / 6) / (1 - math.exp(-5 / 6))
    assert val >= want
    assert val == pytest.approx(want, rel=1e-9)
    with pytest.raises(TailUnbounded):
        tail_majorant(inf, ExponentialEnvelope(1.0, 2, 1), 10, 3)


def test_alpha_extension_rules():
    held = explicit_alpha([1.0, 2.0], "hold")
    assert held.value(10) == 2.0
    arith = explicit_alpha([1.0, 2.0], "arithmetic")
    assert arith.value(4) == 4.0
    bare = explicit_alpha([1.0, 2.0], None)
    with pytest.raises(IndexError):
        bare.value(3)
    with pytest.raises(ValueError):
        explicit_alpha([2.0, 1.0])  # decreasing


# -- composing tail certificates ----------------------------------------------

# the only functions outside spaces.py that build an envelope: each builds it
# from coefficients (or a config literal), not from other envelopes
ENVELOPE_BUILDERS = {
    ("symbols.py", "symbol_envelope"): 1,
    ("symbols.py", "parse_envelope"): 2,
    ("symbols.py", "convolve_envelopes"): 1,   # the l1 product of two finite factors
    ("laurent.py", "fit_geometric_envelope"): 2,
}


def test_only_spaces_composes_envelopes():
    calls = Counter()

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee in ("GeometricEnvelope", "ExponentialEnvelope"):
                    calls[(path.name, func)] += 1
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            visit(child, path, inner)

    for path in sorted(Path(psop.__file__).parent.glob("*.py")):
        if path.name != "spaces.py":
            visit(ast.parse(path.read_text()), path, None)
    assert dict(calls) == ENVELOPE_BUILDERS


def test_convolve_finite_skips_zeros_but_keeps_float_powers():
    env = GeometricEnvelope(0.5, 0.01)
    # trailing zeros of a stored vector never reach ratio ** (-j)
    assert convolve_finite((1,) + (0,) * 399, env, 1) == GeometricEnvelope(0.5 * 100.0, 0.01)
    # a far nonzero entry still overflows the float power
    with pytest.raises(OverflowError):
        convolve_finite((0,) * 199 + (1,), env, 1)
    assert convolve_finite((), env) == convolve_finite((1, 2), GeometricEnvelope(1, 0)) \
        == psop.FinitelySupported()


@pytest.mark.parametrize("cx,rx,ct,rt", [(1.0, 0.5, 1.0, 0.5), (3.0, 0.9, 0.25, 0.2),
                                          (0.5, 0.1, 2.0, 0.95), (1.0, 0.7, 1.0, 0.0)])
def test_hat_output_tail_on_two_envelopes_is_sound_and_tighter(cx, rx, ct, rt):
    """The element rule shift(product(shift(x, -1), theta), 1) dominates the
    product and never exceeds rho' times the bound it replaced (ledger s5)."""
    N, M = 6, 400
    xs = tuple(cx * rx ** n for n in range(1, M + 1))
    theta = psop.geometric_symbol(ct, rt)
    tail = psop.hat_apply(theta, Element(xs[:N], GeometricEnvelope(cx, rx))).tail
    full = psop.hat_apply(theta, Element(xs, GeometricEnvelope(cx, rx))).values
    assert all(v <= tail.at(n) * (1 + 1e-12) for n, v in enumerate(full[:M // 2], 1))
    if rt > 0:
        rho = max(rx, rt)
        rho_inf = (1.0 + rho) / 2.0
        t = rho / rho_inf
        sup_n = max(n * t ** n for n in range(1, 2000))
        old = cx * ct * max(sup_n, 1.0) / rho_inf
        assert tail.ratio == rho_inf and tail.scale <= rho_inf * old * (1 + 1e-12)


def test_correlate_envelope_raises_tail_unbounded_past_the_float_range():
    with pytest.raises(TailUnbounded):
        correlate_envelope(GeometricEnvelope(1e300, 0.5), psop.FinitelySupported(), 8, 2, 1e10)
    with pytest.raises(TailUnbounded):
        correlate_envelope(GeometricEnvelope(1e300, 0.5), GeometricEnvelope(1e10, 0.5), 8,
                           None, math.inf)


def test_geometric_tail_sum_against_partial_sums():
    env = GeometricEnvelope(3.0, 0.25)
    for start, growth in ((0, 1.0), (5, 1.0), (2, math.e), (7, 2.0)):
        brute = math.fsum(env.at(i) * growth ** (i + 1) for i in range(start, start + 400))
        assert geometric_tail_sum(env, start, growth) == pytest.approx(brute, rel=1e-13)
    assert geometric_tail_sum(env, 3, 4.0) == math.inf
    assert geometric_tail_sum(GeometricEnvelope(2.0, 0.0), 0, math.e) == 2.0 * math.e
    assert geometric_tail_sum(GeometricEnvelope(2.0, 0.0), 1) == 0.0


def test_dual_certificate_check_reads_the_envelope_past_a_window(inf):
    beta = sampled_symbol([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
                          GeometricEnvelope(1.0, 0.5))
    cert = fit_dual_certificate(inf, beta)
    assert dual_certificate_check(inf, beta, cert, 64).passed
    fin = finite_type_space()
    # exp(-n) falls faster than 2^-n: the window passes, the envelope fails
    tight = DualCertificate(math.exp(3) / 8 * (1 + 1e-9), 1)
    res = dual_certificate_check(fin, beta, tight, 64)
    assert not res.passed and res.witness == 4
