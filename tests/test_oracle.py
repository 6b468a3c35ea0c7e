import ast
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from psop import (
    GeometricEnvelope,
    NonReplayable,
    Status,
    classify_check_all,
    classify_hat_m_top,
    classify_hat_power_bounded_finite,
    classify_hat_power_bounded_infinite,
    classify_hat_topologizable,
    delta_symbol,
    dense_apply,
    dense_check,
    dense_hat,
    dense_power,
    dense_toeplitz,
    finite_symbol,
    geometric_symbol,
    make_hat_operator,
    replay_verdict,
    sampled_symbol,
    strongly_tame_probe,
    zero_symbol,
)
from psop import oracle
from psop.classify import GridParams, _propagate_hierarchy
from psop.operators import make_check_operator
from psop.spaces import infinite_type_space
from psop.oracle import _abs_entry, _conv_powers, column
from psop.symbols import prefix


def test_dense_apply_examples():
    ident = dense_hat(delta_symbol(), 4)
    x = [1, 2, 3, 4]
    assert dense_apply(ident, x) == [1, 2, 3, 4]
    shift = dense_hat(finite_symbol([0, 1]), 4)
    assert dense_apply(shift, [1, 0, 0, 0]) == [0, 1, 0, 0]
    sq = dense_power(dense_hat(finite_symbol([1, 1]), 5), 2)
    assert dense_apply(sq, [1, 0, 0, 0, 0]) == [1, 2, 1, 0, 0]


def test_dense_power_and_cesaro_examples():
    ident = dense_hat(delta_symbol(), 4)
    assert dense_power(ident, 7).rows == ident.rows
    cube = dense_power(dense_hat(finite_symbol([1, 1]), 6), 3)
    assert column(cube, 1)[:4] == [1, 3, 3, 1]


def test_matrix_structure():
    M = dense_hat(finite_symbol([1, 2, 3]), 6)
    for i in range(6):
        for j in range(6):
            if i < j:
                assert M.rows[i][j] == 0
            else:
                assert M.rows[i][j] == M.rows[i - j][0]
    U = dense_check(finite_symbol([1, 2, 3]), 6)
    assert [list(r) for r in U.rows] == \
        [list(col) for col in zip(*M.rows)]  # transpose relation


def leading_block(M, n: int) -> tuple:
    return tuple(tuple(row[:n]) for row in M.rows[:n])


@pytest.mark.parametrize("k", [2, 5, 16])
def test_triangular_truncation_commutes_with_power(k):
    theta = finite_symbol([Fraction(1, 2), 1, Fraction(-1, 3)])
    small = dense_power(dense_hat(theta, 12), k)
    big = dense_power(dense_hat(theta, 24), k)
    assert leading_block(big, 12) == small.rows
    beta = finite_symbol([2, Fraction(1, 5)])
    small = dense_power(dense_check(beta, 12), k)
    big = dense_power(dense_check(beta, 24), k)
    assert leading_block(big, 12) == small.rows


@pytest.mark.parametrize("k", [1, 3, 8])
def test_mixed_toeplitz_leading_block_stability(k):
    theta = finite_symbol([Fraction(1, 3), Fraction(1, 4)])
    beta = finite_symbol([0, Fraction(1, 5), Fraction(1, 7)])
    n = 16
    small = dense_power(dense_toeplitz(theta, beta, n), k)
    big = dense_power(dense_toeplitz(theta, beta, 2 * n), k)
    assert leading_block(big, n // 2) == leading_block(small, n // 2)


def _lifted(v, exact):
    """Reference lift of one coefficient: a Fraction on exact truncations,
    else the mpmath number holding its value."""
    if exact:
        return Fraction(v)
    if isinstance(v, complex):
        return mpmath.mpc(v.real, v.imag)
    return mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator


@pytest.mark.parametrize("sym", [
    finite_symbol([Fraction(1, 2), -2, 0, Fraction(3, 7)]),
    finite_symbol([0.5, -0.0, 1e-300, -3.25]),
    finite_symbol([0.5j, 0.25, complex(-1, 2)]),
    geometric_symbol(Fraction(3, 4), Fraction(-1, 3)),
    geometric_symbol(0.75, 0.4),
], ids=["exact", "float", "complex", "geometric-exact", "geometric-float"])
@pytest.mark.parametrize("N", [1, 4, 9])
def test_hat_and_check_rows_are_the_triangular_formulas(sym, N):
    """dense_hat is lower triangular with theta_{i-j}, dense_check upper
    triangular with beta_{j-i}, zeros elsewhere, each entry lifted in the
    truncation's arithmetic (value, type and the exact flag)."""
    vals = prefix(sym, N)
    exact = all(isinstance(v, (int, Fraction)) for v in vals)
    with mpmath.workdps(50):
        zero = _lifted(0, exact)
        lower = [[_lifted(vals[i - j], exact) if i >= j else zero for j in range(N)]
                 for i in range(N)]
        for M, want in ((dense_hat(sym, N), lower),
                        (dense_check(sym, N), [list(r) for r in zip(*lower)])):
            assert M.exact is exact
            assert [[(type(v), v) for v in row] for row in M.rows] == \
                [[(type(v), v) for v in row] for row in want]


def test_complex_hat_verdicts_replay(fin):
    """The dense-column replays read the lifted entries as they are: a
    complex entry is not forced through float()."""
    theta = finite_symbol([0.5j, 0.25])
    envelope = classify_hat_m_top(fin, theta, GridParams())
    tame = strongly_tame_probe(make_hat_operator(fin, theta)).verdict
    assert envelope.certificate.rule == "hat_power_norm_envelope"
    assert tame.certificate.rule == "strongly_tame_closed_bounds"
    assert replay_verdict(envelope) is True
    assert replay_verdict(tame) is True


def test_high_precision_fallback_for_irrational_symbols():
    import mpmath

    M = dense_hat(geometric_symbol(1.0, 0.5), 6)
    assert not M.exact
    out = dense_apply(M, [1.0, 0, 0, 0, 0, 0])
    assert abs(out[3] - mpmath.mpf(1) / 8) < mpmath.mpf("1e-45")


def test_replay_verdicts(fin, inf):
    grid = GridParams()
    holds = classify_hat_power_bounded_finite(
        fin, geometric_symbol(Fraction(1, 2), Fraction(1, 2)), grid)
    assert replay_verdict(holds)
    fails = classify_hat_power_bounded_infinite(inf, delta_symbol(2), grid)
    assert replay_verdict(fails)
    open_v = classify_hat_power_bounded_infinite(
        inf, finite_symbol([Fraction(1, 2), Fraction(1, 2)]), grid)
    with pytest.raises(NonReplayable):
        replay_verdict(open_v)


def test_dense_size_cap():
    with pytest.raises(ValueError):
        dense_hat(delta_symbol(), 1024)


def test_implied_by_rules_replay_through_the_inner_rule(fin, inf):
    grid = GridParams()
    topo = classify_hat_topologizable(fin, finite_symbol([Fraction(1, 2)]), grid)
    assert topo.certificate.rule == "implied_by_m_topologizable"
    # classify_check_all never leaves m_topologizable open while power_bounded
    # holds, so hand its hierarchy step that state directly
    pb = classify_check_all(inf, delta_symbol(Fraction(1, 2)), grid)["power_bounded"]
    assert pb.status is Status.HOLDS
    out = {"power_bounded": pb}
    for prop in ("m_topologizable", "topologizable"):
        out[prop] = replace(pb, prop=prop, status=Status.INCONCLUSIVE, certificate=None)
    _propagate_hierarchy(out)
    mtop = out["m_topologizable"]
    assert mtop.certificate.rule == "implied_by_power_bounded"
    # the chain nests: topologizable <- m_topologizable <- power_bounded
    assert out["topologizable"].certificate.rule == "implied_by_m_topologizable"
    for v in (topo, mtop, out["topologizable"]):
        assert replay_verdict(v) is True
        for outer in ("implied_by_power_bounded", "implied_by_m_topologizable"):
            cert = replace(v.certificate, rule=outer,
                           params={"inner": {"rule": "no_such_rule", "params": {}}})
            with pytest.raises(NonReplayable):
                replay_verdict(replace(v, certificate=cert))


# -- the exact branch of _conv_powers against the nested Fraction loop -------


def _abs_conv_power_scalar(sym, k, N):
    """|beta^{*k}| on the first N indices by the nested Fraction loop the
    integer branch replaced."""
    vals = [Fraction(v) for v in prefix(sym, N)]
    out = list(vals)
    for _ in range(k - 1):
        new = [Fraction(0)] * min(N, len(out) + len(vals) - 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j, b in enumerate(vals):
                if i + j < len(new):
                    new[i + j] += a * b
        out = new
    return [abs(v) for v in out]


@pytest.mark.parametrize("sym", [
    finite_symbol([Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(3, 8)]),
    finite_symbol([2, -1, 0, 3]),
    finite_symbol([Fraction(-2, 3), 1, 0, 0]),
    finite_symbol([0, 0, Fraction(5, 7)]),
    delta_symbol(Fraction(-3, 2)),
    zero_symbol(),
    geometric_symbol(Fraction(3, 4), Fraction(-1, 2)),
    sampled_symbol([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)], extension="zero"),
], ids=lambda s: s.describe())
def test_mp_abs_conv_power_matches_nested_fraction_loop(sym):
    """|beta^{*k}| as the oracle reads it off _conv_powers (_abs_entry of each
    numerator over its scale), against the nested Fraction loop."""
    for N in (1, 2, 7, 40):
        powers = _conv_powers(sym, N)
        for k in range(1, 6):
            k_got, nums, scale = next(powers)
            assert k_got == k and all(type(a) is int for a in nums)
            got = [_abs_entry(nums, scale, m) for m in range(N)]
            want = _abs_conv_power_scalar(sym, k, N)
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


# -- dual_circle_modulus_bound replay: known answers on both sides ----------

CIRCLE_BETA = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(3, 8))
# max |beta(z)| on |z| = e^{1/11} is attained at z = e^{1/11 + i t}, t below:
# a root of the derivative of |beta(e^{1/11 + i t})| at 50 digits, started
# from the largest of 20001 equally spaced samples
CIRCLE_ARGMAX = "4.2708242548846999113622467690925593227330055664331"


def test_circle_modulus_replay_known_answers(fin):
    v = classify_check_all(fin, finite_symbol(CIRCLE_BETA), GridParams())["power_bounded"]
    assert v.certificate.rule == "dual_circle_modulus_bound"
    assert v.certificate.params == {"q": 11}
    assert replay_verdict(v) is True
    with mpmath.workdps(50):
        z = mpmath.e ** (mpmath.mpf(1) / 11) * mpmath.expj(mpmath.mpf(CIRCLE_ARGMAX))
        peak = abs(sum(mpmath.mpf(c.numerator) / c.denominator * z ** i
                       for i, c in enumerate(CIRCLE_BETA)))
        # the scale that puts |beta(z)| on the bound e^{-1/11}
        on_bound = Fraction(str(mpmath.e ** (-mpmath.mpf(1) / 11) / peak))

    def scaled(s):
        return replace(v, beta=finite_symbol([s * c for c in CIRCLE_BETA]))

    # 1% below the bound the exact decision holds
    assert replay_verdict(scaled(on_bound * Fraction(99, 100))) is True
    # just above it the modulus at z alone exceeds the bound
    assert replay_verdict(scaled(on_bound * (1 + Fraction(1, 10 ** 9)))) is False
    # q = 10 also holds; q = 9 claims a smaller circle bound that fails
    for q, want in ((10, True), (9, False), (1, False)):
        mutant = replace(v, certificate=replace(v.certificate, params={"q": q}))
        assert replay_verdict(mutant) is want


UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(100_000) / 100_000)


def _sampled_circle_ratio(coefs, q):
    """max |beta| over 100 000 equally spaced points of |z| = e^{1/q}, over
    e^{-1/q}."""
    c = np.array([complex(v) for v in coefs])
    return float(np.abs(np.polyval(c[::-1], math.exp(1 / q) * UNIT_CIRCLE)).max()) \
        * math.exp(1 / q)


def _circle_draws(count, seed=20261019):
    """Supports 1 to 6, entries j/8, about one draw in five Gaussian."""
    rng = random.Random(seed)
    for _ in range(count):
        gaussian = rng.random() < 0.2
        yield [complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 8 if gaussian
               else Fraction(rng.randint(-4, 4), 8)
               for _ in range(rng.randint(1, 6))], rng.randint(1, 48)


def test_exact_circle_decision_agrees_with_dense_sampling():
    """The exact decision behind dual_circle_modulus_bound against a
    100 000-point float sample of the circle, wherever the sampled maximum
    lies outside a 1e-9 band around the bound."""
    outcomes = []
    for coefs, q in _circle_draws(300):
        ratio = _sampled_circle_ratio(coefs, q)
        if abs(ratio - 1) > 1e-9:
            assert oracle._circle_bound_holds(coefs, q) is (ratio < 1), (coefs, q)
            outcomes.append(ratio < 1)
    assert len(outcomes) >= 290 and 50 <= sum(outcomes) <= len(outcomes) - 50


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
def test_exact_circle_decision_at_support_16(gaussian):
    """Scaled to 0.999 and 1.001 of the sampled peak over the bound."""
    rng = random.Random(16)
    coefs = [complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 8 if gaussian
             else rng.randint(-4, 4) / 8 for _ in range(16)]
    peak = _sampled_circle_ratio(coefs, 5)
    for scale, want in ((0.999, True), (1.001, False)):
        assert oracle._circle_bound_holds([c * scale / peak for c in coefs], 5) is want


def test_circle_modulus_exceeds_replays_at_its_recorded_angle(fin):
    """|1/2 + 3z/4| = 5/4 at z = 1; at half the symbol the maximum is 5/8."""
    v = classify_check_all(fin, finite_symbol([Fraction(1, 2), Fraction(3, 4)]),
                           GridParams())["power_bounded"]
    assert v.certificate.rule == "dual_circle_modulus_exceeds"
    assert replay_verdict(v) is True
    half = replace(v, beta=finite_symbol([Fraction(1, 4), Fraction(3, 8)]))
    assert replay_verdict(half) is False


def test_circle_form_is_the_half_angle_identity():
    """F(s) = c (T^2 - |gamma(w)|^2) (1 + s^2)^d at w = (1 + is)/(1 - is),
    for one positive constant c, checked in Fractions."""
    F = Fraction
    gamma = [(F(1, 2), F(-1, 3)), (F(0), F(3, 4)), (F(-5, 8), F(1, 8))]
    T = F(7, 5)
    form = oracle._circle_form(gamma, T)
    d = len(gamma) - 1
    ratios = set()
    for s in (F(0), F(1), F(-2, 3), F(5, 7), F(-11, 3)):
        f_s = sum(c * s ** j for j, c in enumerate(form))
        wr, wi = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
        val_r, val_i, pr, pi = F(0), F(0), F(1), F(0)
        for a, b in gamma:
            val_r, val_i = val_r + a * pr - b * pi, val_i + a * pi + b * pr
            pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
        ratios.add(f_s / ((T * T - val_r ** 2 - val_i ** 2) * (1 + s * s) ** d))
    assert len(ratios) == 1 and ratios.pop() > 0


def test_circle_decision_is_strict_at_a_touch_at_t_pi():
    """|(1 - w)/2| < 1 on the unit circle except at w = -1, where it is 1."""
    gamma = [(Fraction(1, 2), Fraction(0)), (Fraction(-1, 2), Fraction(0))]
    assert oracle._circle_modulus_below(gamma, Fraction(1)) is False
    assert oracle._circle_modulus_below(gamma, 1 + Fraction(1, 2 ** 64)) is True


def _poly_mul(*factors):
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[n - i] for i in range(len(out)) if 0 <= n - i < len(f))
               for n in range(len(out) + len(f) - 1)]
    return out


def test_real_root_count_counts_distinct_roots():
    # (s^2 - 2)(s - 1)^2 (s^2 + 1): roots -sqrt 2, 1 (double), sqrt 2
    f = _poly_mul([-2, 0, 1], [-1, 1], [-1, 1], [1, 0, 1])
    assert oracle._real_root_count(f) == 3
    assert oracle._real_root_count([-c for c in f]) == 3
    # odd degree, a triple root: (u + 2)(u - 1)^3
    assert oracle._real_root_count(_poly_mul([2, 1], [-1, 1], [-1, 1], [-1, 1])) == 2
    assert oracle._real_root_count([1, 0, 1]) == 0
    assert oracle._real_root_count([5]) == 0


def test_circle_rules_replay_without_sampling_or_float_margins():
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert not any(isinstance(node, ast.Attribute) and node.attr in ("expj", "expjpi")
                   for node in ast.walk(tree))
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_replay_circle_modulus", "_replay_circle_exceeds", "_circle_bound_holds",
                 "_circle_modulus_below", "_circle_form"):
        names = {n.id for n in ast.walk(fns[name]) if isinstance(n, ast.Name)}
        assert not names & {"mpmath", "_FLOAT", "_TIGHT", "_LOOSE", "_within"}, name


def test_oracle_imports_from_checked_modules_are_pinned():
    """Replay stays independent of the code it checks: oracle.py takes only
    these names from symbols and operators, so it cannot reuse their
    integer kernels, convolve or absolute sums."""
    names = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("psop.")
            if module in ("symbols", "operators"):
                names |= {alias.name for alias in node.names}
            elif module in ("", "psop"):
                assert not {alias.name for alias in node.names} & {"symbols", "operators"}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith(("psop.symbols", "psop.operators"))
                           for alias in node.names)
    assert names == {"Symbol", "coeff", "is_rational", "prefix", "readable_length",
                     "zero_symbol"}


@pytest.mark.parametrize("values", [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
                                    [1 / 2, 1 / 4, 1 / 8]], ids=["exact", "float"])
def test_young_envelope_replays_on_a_window_shorter_than_the_spot_check(inf, values):
    """The spot checks read beta^{*k} only as far as beta's window: entry m
    of a power depends on entries 0..m of beta alone."""
    beta = sampled_symbol(values, GeometricEnvelope(1.0, 0.5))
    verdicts = classify_check_all(inf, beta, GridParams())
    top, mtop = verdicts["topologizable"], verdicts["m_topologizable"]
    assert mtop.certificate.rule == "young_envelope"
    assert top.certificate.rule == "implied_by_m_topologizable"
    assert replay_verdict(mtop) is True
    assert replay_verdict(top) is True
    _, nums, _ = next(p for p in _conv_powers(beta, 40) if p[0] == 2)
    assert len(nums) == 3


def _string_leaves(node) -> set:
    """The string constants an expression can evaluate to; anything but a
    string constant or a conditional between them fails the guard."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _string_leaves(node.body) | _string_leaves(node.orelse)
    raise AssertionError(f"rule name at line {node.lineno} is not a string literal")


def test_every_emitted_rule_has_a_replayer():
    """The rule names classify.py can put on a certificate (the first
    argument of every Certificate(...), the implied_by_* names of the
    hierarchy included) are exactly the rules oracle.py registers a replayer
    for: a new rule without a replay, or a replayer no rule reaches, fails."""
    src = Path(oracle.__file__).parent
    emitted = set()
    for node in ast.walk(ast.parse((src / "classify.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Certificate":
            emitted |= _string_leaves(node.args[0])
    replayed = set()
    for node in ast.walk(ast.parse((src / "oracle.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "replayer":
                    replayed |= _string_leaves(dec.args[0])
    assert {"implied_by_power_bounded", "implied_by_m_topologizable"} <= emitted
    assert emitted == replayed


# -- known answers: one real verdict per registered rule ---------------------


def _hierarchy_implied(space, beta):
    """implied_by_power_bounded, which the classifiers emit only when
    m_topologizable is open while power_bounded holds: hand their hierarchy
    step that state."""
    pb = classify_check_all(space, beta, GridParams())["power_bounded"]
    out = {"power_bounded": pb}
    for prop in ("m_topologizable", "topologizable"):
        out[prop] = replace(pb, prop=prop, status=Status.INCONCLUSIVE, certificate=None)
    _propagate_hierarchy(out)
    return out["m_topologizable"]


def _known_answer_cases():
    from psop import (classify_toeplitz, explicit_alpha, finite_type_space,
                      infinite_type_space, make_check_operator)

    fin, inf = finite_type_space(), infinite_type_space()
    grid = GridParams()
    F = Fraction

    def check(space, beta, prop):
        return lambda: classify_check_all(space, beta, grid)[prop]

    def hat_pb(space, theta):
        fn = classify_hat_power_bounded_finite if space.is_finite_type \
            else classify_hat_power_bounded_infinite
        return lambda: fn(space, theta, grid)

    return {
        "zero_operator": check(inf, zero_symbol(), "power_bounded"),
        "hat_l1_contraction": hat_pb(fin, geometric_symbol(F(1, 2), F(1, 2))),
        # fails is true here: |1 + z| -> 2 in the disc
        "hat_l1_exceeds": hat_pb(fin, finite_symbol([1, 1])),
        "hat_delta_power_norms": hat_pb(inf, delta_symbol(F(1, 2))),
        "hat_conv_power_lower_growth": hat_pb(inf, finite_symbol([F(1, 2), 1])),
        "dual_l1_contraction": check(inf, finite_symbol([F(1, 4), F(1, 4)]), "power_bounded"),
        "young_envelope": check(inf, finite_symbol([F(1, 4), F(1, 4)]), "m_topologizable"),
        "young_envelope_shifted": check(fin, finite_symbol([F(1, 4), F(1, 4)]),
                                        "m_topologizable"),
        "finite_support_topologizable": check(fin, finite_symbol([F(1, 4), F(1, 4)]),
                                              "topologizable"),
        "dual_delta_contraction": check(inf, delta_symbol(F(1, 2)), "power_bounded"),
        "dual_fixed_index_growth": check(inf, delta_symbol(3), "power_bounded"),
        # fails is true here: with |beta_0| = 1 the powers grow linearly
        "dual_fixed_index_floor": check(fin, finite_symbol([1, F(1, 2)]), "power_bounded"),
        "dual_disc_modulus_bound": check(inf, finite_symbol([F(1, 2), 2]), "power_bounded"),
        "dual_circle_modulus_bound": check(fin, finite_symbol(CIRCLE_BETA), "power_bounded"),
        "dual_circle_modulus_exceeds": check(fin, finite_symbol([F(1, 2), F(3, 4)]),
                                             "power_bounded"),
        "dual_l1_exceeds_on_circle": check(fin, geometric_symbol(F(1, 2), F(3, 4)),
                                           "power_bounded"),
        "dual_l1_decay_bound": check(fin, finite_symbol([F(1, 4), F(1, 4)]), "power_bounded"),
        "dual_geometric_decay_bound": check(fin, geometric_symbol(F(1, 8), F(1, 2)),
                                            "power_bounded"),
        "dual_geometric_decay_bound_topology": check(fin, geometric_symbol(F(1, 8), F(1, 2)),
                                                     "m_topologizable"),
        "dual_negbinomial_envelope": check(inf, geometric_symbol(1, F(3, 2)),
                                           "m_topologizable"),
        "dual_negbinomial_contraction": check(inf, geometric_symbol(F(1, 2), F(3, 2)),
                                              "power_bounded"),
        "hat_power_norm_envelope": lambda: classify_hat_m_top(
            fin, finite_symbol([F(1, 2)]), grid),
        "hat_per_power_symbol_norms": lambda: classify_hat_topologizable(
            infinite_type_space(explicit_alpha(range(1, 9), "arithmetic")),
            finite_symbol([F(1, 2), F(1, 4)]), grid),
        "toeplitz_power_bound_sum": lambda: classify_toeplitz(
            fin, finite_symbol([F(1, 4)]), finite_symbol([0, F(1, 40)]), grid)["power_bounded"],
        "strongly_tame_closed_bounds": lambda: strongly_tame_probe(
            make_check_operator(inf, finite_symbol([F(1, 4), F(1, 4)]))).verdict,
        "implied_by_power_bounded": lambda: _hierarchy_implied(inf, delta_symbol(F(1, 2))),
        "implied_by_m_topologizable": lambda: classify_hat_topologizable(
            fin, finite_symbol([F(1, 2)]), grid),
        "dual_l1_tame_bound": lambda: classify_toeplitz(
            fin, finite_symbol([F(1, 4)]), finite_symbol([0, F(1, 40)]), grid)["strongly_tame"],
    }


KNOWN_ANSWERS = _known_answer_cases()


@pytest.mark.parametrize("rule", sorted(oracle._REPLAYERS))
def test_every_rule_replays_a_known_answer(rule):
    """Every registered rule, reached through the classifiers on a case whose
    decisive verdict is right, replays True."""
    v = KNOWN_ANSWERS[rule]()
    assert v.decisive and v.certificate.rule == rule
    assert replay_verdict(v) is True


def test_known_answers_reach_the_second_growth_route_and_a_nonzero_beta():
    growth = KNOWN_ANSWERS["hat_conv_power_lower_growth"]()
    assert growth.certificate.params["route"] == "nonneg_sum"
    toeplitz = KNOWN_ANSWERS["toeplitz_power_bound_sum"]()
    assert not toeplitz.beta.is_zero


# -- each checker rejects a bound tightened below the true value ------------


def test_powers_within_rejects_a_tightened_envelope(fin):
    """young_envelope_shifted on [1/4, 1/4], q = 1: the tightest constant is
    D = e^2 / 4, from |beta_1| = 1/4 <= D e^{-2}."""
    v = KNOWN_ANSWERS["young_envelope_shifted"]()
    assert v.certificate.params["q"] == 1
    tightest = Fraction(str(mpmath.mpf(mpmath.e ** 2 / 4)))

    def with_d(D):
        params = dict(v.certificate.params, D=str(D))
        return replace(v, certificate=replace(v.certificate, params=params))

    assert replay_verdict(with_d(tightest * (1 + Fraction(1, 10 ** 6)))) is True
    assert replay_verdict(with_d(tightest * (1 - Fraction(1, 10 ** 6)))) is False


@pytest.mark.parametrize("beta", [
    finite_symbol([Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7), Fraction(3, 8)]),
    geometric_symbol(Fraction(3, 7), Fraction(-5, 11)),
    finite_symbol([0.3, -0.45, 0.2, 0.1]),
], ids=["rational", "geometric", "float"])
def test_powers_within_rejects_a_bound_just_under_one_power(beta):
    """With ks = (1, 2, 4), a bound just under max_m |beta^{*4}_m| at k = 4,
    or just under max_m |beta^{*2}_m| at k = 2 alone, fails the claim, on
    integer numerators (a rational and a geometric beta, whose denominators
    grow to hundreds of bits) and on the 50-digit path (a float beta)."""
    N, eps = 24, Fraction(1, 10 ** 20)
    peak = {k: max(_abs_conv_power_scalar(beta, k, N)) for k in (1, 2, 4)}

    def bound_under(at):
        def bound(k, m):
            c = peak[k] * (1 - eps if k == at else 1 + eps)
            return mpmath.mpf(c.numerator) / c.denominator
        return bound

    with mpmath.workdps(50):
        assert oracle._powers_within(beta, (1, 2, 4), N, bound_under(None), oracle._TIGHT)
        for at in (4, 2):
            assert not oracle._powers_within(beta, (1, 2, 4), N, bound_under(at),
                                             oracle._TIGHT)


def test_columns_within_rejects_a_tightened_column_bound(inf):
    """The check operator of [1/4, 1/4] maps e_n to (e_{n-1} + e_n) / 4, so
    max_n ||T e_n||_p / ||e_n||_p = (1 + e^{-p}) / 4 on the infinite type."""
    v = KNOWN_ANSWERS["strongly_tame_closed_bounds"]()
    with mpmath.workdps(50):
        true = {p: (1 + mpmath.e ** -p) / 4 for p in (1, 2)}

    def with_bounds(scale):
        params = dict(v.certificate.params,
                      bounds={str(p): str(b * scale) for p, b in true.items()})
        return replace(v, certificate=replace(v.certificate, params=params))

    assert replay_verdict(with_bounds(1 + 1e-6)) is True
    assert replay_verdict(with_bounds(1 - 1e-6)) is False


def test_abs_at_reads_an_exact_coefficient_against_its_bound(inf):
    v = KNOWN_ANSWERS["hat_delta_power_norms"]()
    assert replay_verdict(replace(v, theta=delta_symbol(1))) is True
    assert replay_verdict(replace(v, theta=delta_symbol(1 + Fraction(1, 10 ** 40)))) is False


# -- the oracle's own absolute sums ------------------------------------------


@pytest.mark.parametrize("sym, want, exact", [
    (finite_symbol([Fraction(1, 3), Fraction(-1, 6)]), Fraction(1, 2), True),
    (geometric_symbol(Fraction(-1, 2), Fraction(-3, 4)), Fraction(2), True),
    (geometric_symbol(1, Fraction(3, 2)), mpmath.inf, True),
    (finite_symbol([0.5, -0.25j]), Fraction(3, 4), False),
    (geometric_symbol(0.5, 0.5), Fraction(1), False),
    # window 3/4 plus the tail 1/2 * (1/2)^2 / (1 - 1/2) = 1/4
    (sampled_symbol([0.5, -0.25], GeometricEnvelope(0.5, 0.5)), Fraction(1), False),
    # window 1/2 plus the envelope up to the support bound: 1/2 + 1/4
    (sampled_symbol([0.5], GeometricEnvelope(1.0, 0.5), support_len=3), Fraction(5, 4),
     False),
], ids=["finite", "geometric", "geometric-divergent", "complex", "geometric-float",
        "sampled-tail", "sampled-support"])
def test_mp_ell1_derives_each_kind_in_the_oracle(sym, want, exact):
    with mpmath.workdps(50):
        val, is_exact = oracle._mp_ell1(sym)
        expected = want if want == mpmath.inf else \
            mpmath.mpf(want.numerator) / want.denominator
        assert is_exact is exact
        assert abs(val - expected) <= mpmath.mpf("1e-45") or val == expected


def test_mp_ell1_without_a_settling_certificate_is_not_replayable():
    with pytest.raises(NonReplayable):
        oracle._mp_ell1(sampled_symbol([0.5], GeometricEnvelope(1.0, 1.0)))


# -- margins ------------------------------------------------------------------


def _margin_literals(tree) -> list:
    """Float constants and decimal strings (what mpmath would parse into a
    margin), with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Constant) or isinstance(node.value, bool):
            continue
        if isinstance(node.value, float):
            found.append(node.lineno)
        elif isinstance(node.value, str) and any(ch.isdigit() for ch in node.value):
            try:
                float(node.value)
            except ValueError:
                continue
            found.append(node.lineno)
    return found


def test_oracle_margins_are_the_three_named_constants():
    """oracle.py writes a margin literal only where it names one of its three
    margins; every replay pads its bounds through those names."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    named = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                getattr(node.targets[0], "id", None) in ("_TIGHT", "_FLOAT", "_LOOSE"):
            named[node.targets[0].id] = node.value.value
    assert named == {"_TIGHT": "1e-30", "_FLOAT": "1e-12", "_LOOSE": "1e-9"}
    lines = {node.lineno for node in tree.body
             if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in named}
    assert sorted(set(_margin_literals(tree)) - lines) == []


def test_zero_operator_replay_reads_the_symbol_itself(inf):
    """Entries 1 and 2 are unknown: a zero_operator verdict must not replay."""
    sym = sampled_symbol([0], GeometricEnvelope(1.0, 0.5), support_len=3)
    v = classify_check_all(inf, finite_symbol([0]))["power_bounded"]
    assert v.certificate.rule == "zero_operator" and replay_verdict(v)
    assert replay_verdict(replace(v, beta=sym)) is False
    assert replay_verdict(replace(v, beta=sampled_symbol([0, 0], extension="zero")))


def test_dense_column_replays_read_inside_a_short_window():
    beta = sampled_symbol([0.25, -0.125], GeometricEnvelope(0.25, 0.5))
    v = strongly_tame_probe(make_check_operator(infinite_type_space(), beta)).verdict
    assert v.certificate.rule == "strongly_tame_closed_bounds" and replay_verdict(v)
    params = v.certificate.params
    halved = {p: b / 2 for p, b in params["bounds"].items()}
    cert = replace(v.certificate, params={**params, "bounds": halved})
    assert replay_verdict(replace(v, certificate=cert)) is False
    with pytest.raises(NonReplayable):
        replay_verdict(replace(v, beta=sampled_symbol([], GeometricEnvelope(1.0, 0.5))))
