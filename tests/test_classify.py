import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psop import (
    GridParams,
    NonReplayable,
    OutOfSampledRange,
    Status,
    UnsupportedSpace,
    classify_check_all,
    classify_hat_m_top,
    classify_hat_power_bounded_finite,
    classify_hat_power_bounded_infinite,
    classify_hat_topologizable,
    classify_operator,
    classify_toeplitz,
    delta_symbol,
    finite_symbol,
    finite_type_space,
    geometric_symbol,
    make_check_operator,
    make_hat_operator,
    make_toeplitz_operator,
    replay_verdict,
    root_alpha,
    sampled_symbol,
    strongly_tame_probe,
    zero_symbol,
)
from psop import symbols
from psop.classify import _dual_evidence, _dual_log_ratios
from psop.numerics import log_nonneg
from psop.operators import OperatorContractError, hat_column_log_norms
from psop.spaces import (
    ExponentialEnvelope,
    GeometricEnvelope,
    TailUnbounded,
    infinite_type_space,
)
from psop.symbols import ConvPowerTable, float_prefix, float_symbol, readable_length

GRID = GridParams()


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------


def test_hat_m_top_examples(fin, inf):
    v = classify_hat_m_top(fin, finite_symbol([1, 1]), GRID)
    assert v.status is Status.HOLDS
    # the per-grade symbol norms match the two-term sums
    for p in (1, 2, 4):
        want = math.exp(-1 / (2 * p)) + math.exp(-2 / (2 * p))
        assert v.evidence["symbol_norms"][p] == pytest.approx(want, rel=1e-12)
    v = classify_hat_m_top(inf, delta_symbol(), GRID)
    assert v.status is Status.HOLDS
    for p in (1, 3):
        assert v.evidence["C_p"][p] == pytest.approx(math.exp(p), rel=1e-12)
    v = classify_hat_m_top(fin, geometric_symbol(1.0, 0.5), GRID)
    assert v.status is Status.HOLDS
    assert all(math.isfinite(c) for c in v.evidence["C_p"].values())


def test_hat_m_top_certificates_replay(fin, inf):
    for space, theta in [(fin, finite_symbol([1, 1])),
                         (fin, geometric_symbol(1, 1)),    # ell1 infinite
                         (inf, finite_symbol([2, 3, -1])),
                         (fin, geometric_symbol(1.0, 0.5))]:
        v = classify_hat_m_top(space, theta, GRID)
        assert v.status is Status.HOLDS
        assert replay_verdict(v)
        t = classify_hat_topologizable(space, theta, GRID)
        assert t.status is Status.HOLDS
        assert replay_verdict(t)


def test_hat_m_top_inconclusive_on_explicit_alpha():
    from psop.spaces import explicit_alpha, infinite_type_space

    space = infinite_type_space(explicit_alpha([1.0, 2.0, 4.0, 4.5, 5.0], "hold"))
    v = classify_hat_m_top(space, finite_symbol([1, 1]), GRID)
    assert v.status is Status.INCONCLUSIVE
    # topologizability stays decisive through per-power constants
    t = classify_hat_topologizable(space, finite_symbol([1, 1]), GRID)
    assert t.status is Status.HOLDS


def test_hat_power_bounded_finite_decisive(fin):
    v = classify_hat_power_bounded_finite(fin, geometric_symbol(Fraction(1, 2),
                                                               Fraction(1, 2)), GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_hat_power_bounded_finite(fin, finite_symbol([1, 1]), GRID)
    assert v.status is Status.FAILS and replay_verdict(v)
    logs = v.evidence["first_column_log_norms"]
    assert all(b > a for a, b in zip(logs, logs[1:]))  # monotone growth
    v = classify_hat_power_bounded_finite(fin, zero_symbol(), GRID)
    assert v.status is Status.HOLDS


def test_hat_power_bounded_finite_tail_unbounded_is_inconclusive(fin):
    s = sampled_symbol([0.1, 0.1], GeometricEnvelope(1.0, 1.0))
    v = classify_hat_power_bounded_finite(fin, s, GRID)
    assert v.status is Status.INCONCLUSIVE
    with pytest.raises(NonReplayable):
        replay_verdict(v)


@pytest.mark.parametrize("sym", [
    sampled_symbol([0], GeometricEnvelope(1.0, 0.5), support_len=3),
    sampled_symbol([0], support_len=3),
], ids=["envelope", "no_envelope"])
@pytest.mark.parametrize("make", [make_hat_operator, make_check_operator],
                         ids=["hat", "check"])
@pytest.mark.parametrize("space_type", ["finite", "infinite"])
def test_zero_values_before_a_gap_get_no_zero_operator_verdict(fin, inf, sym, make,
                                                               space_type):
    """Entries 1 and 2 are unknown, so the operator need not be zero: a typed
    error is a fine answer, a zero_operator verdict is not."""
    space = fin if space_type == "finite" else inf
    for mode in ("topologizable", "m_topologizable", "power_bounded"):
        try:
            v = classify_operator(make(space, sym), [mode], GRID)[mode]
        except (TailUnbounded, OutOfSampledRange, OperatorContractError):
            continue
        assert v.certificate is None or v.certificate.rule != "zero_operator"


def test_hat_power_bounded_finite_with_a_sum_past_the_float_range_is_inconclusive(fin):
    v = classify_hat_power_bounded_finite(fin, finite_symbol([1e308, 1e308]), GRID)
    assert v.status is Status.INCONCLUSIVE
    assert v.evidence["reason"].endswith("the absolute sum overflows a float")


def test_hat_power_bounded_finite_reads_no_gap_as_zeros(fin):
    v = classify_hat_power_bounded_finite(fin, sampled_symbol([Fraction(1, 4)], support_len=3),
                                          GRID)
    assert v.status is Status.INCONCLUSIVE


def test_hat_power_bounded_finite_consistency_with_orbit(fin):
    # Holds implies the power-norm sweep stays below ||e_n||_{2p}
    theta = finite_symbol([Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])
    v = classify_hat_power_bounded_finite(fin, theta, GRID)
    assert v.status is Status.HOLDS
    table = ConvPowerTable(float_symbol(theta), 320)
    for p in (1, 2):
        logw_q = fin.log_weights(1, 64, 2 * p)
        for k in (1, 4, 16):
            lhs = hat_column_log_norms(fin, table.power(k), p, 64)
            assert np.all(lhs <= logw_q + 1e-9)


def test_hat_power_bounded_infinite(inf):
    v = classify_hat_power_bounded_infinite(inf, delta_symbol(Fraction(1, 2)), GRID)
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_hat_power_bounded_infinite(inf, delta_symbol(2), GRID)
    assert v.status is Status.FAILS and replay_verdict(v)
    assert v.witness == {"k": GRID.K, "n": 1, "p": 1}
    v = classify_hat_power_bounded_infinite(
        inf, finite_symbol([Fraction(1, 2), Fraction(1, 2)]), GRID)
    assert v.status is Status.INCONCLUSIVE
    assert v.evidence["growth_suspected"]
    v = classify_hat_power_bounded_infinite(inf, finite_symbol([1, 1]), GRID)
    assert v.status is Status.FAILS  # nonnegative sum 2 > 1


# ---------------------------------------------------------------------------
# dual operator
# ---------------------------------------------------------------------------


def test_check_infinite_examples(inf):
    for mode in ("topologizable", "m_topologizable", "power_bounded"):
        v = classify_check_all(inf, delta_symbol(Fraction(1, 2)), GRID)[mode]
        assert v.status is Status.HOLDS
    v = classify_check_all(inf, finite_symbol([0, 1]), GRID)["power_bounded"]
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_check_all(inf, delta_symbol(3), GRID)["power_bounded"]
    assert v.status is Status.FAILS and replay_verdict(v)
    assert v.witness["n"] == 1
    # m-topologizability survives the power-bound failure
    op = make_check_operator(inf, delta_symbol(3))
    assert classify_operator(op, ["m_top"], GRID)["m_topologizable"].status \
        is Status.HOLDS


def test_check_finite_examples(fin):
    v = classify_check_all(fin, delta_symbol(Fraction(1, 2)), GRID)["power_bounded"]
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_check_all(fin, finite_symbol([1, 1]), GRID)["topologizable"]
    assert v.status is Status.HOLDS and replay_verdict(v)
    v = classify_check_all(fin, finite_symbol([1, 1]), GRID)["power_bounded"]
    assert v.status is Status.FAILS and replay_verdict(v)
    grow = sampled_symbol([1.0, 3.0, 9.0],
                          __import__("psop").ExponentialEnvelope(1.0, 1, 1))
    with pytest.raises(OperatorContractError):
        classify_check_all(fin, grow, GRID)


def test_check_hierarchy_propagation(fin, inf):
    order = ["power_bounded", "m_topologizable", "topologizable"]
    rank = {Status.HOLDS: 2, Status.INCONCLUSIVE: 1, Status.FAILS: 0}
    for space, beta in [(inf, finite_symbol([0, 1])),
                        (inf, geometric_symbol(Fraction(1, 4), 2)),
                        (fin, geometric_symbol(Fraction(1, 8), Fraction(1, 2))),
                        (fin, finite_symbol([Fraction(1, 4), Fraction(1, 4)]))]:
        verdicts = classify_check_all(space, beta, GRID)
        statuses = [verdicts[p].status for p in order]
        for a, b in zip(statuses, statuses[1:]):
            assert rank[a] <= rank[b] or a is not Status.HOLDS
        if statuses[0] is Status.HOLDS:
            assert statuses[1] is Status.HOLDS and statuses[2] is Status.HOLDS


def test_check_grid_doubling_never_flips(fin, inf):
    big = GRID.doubled()
    for space, beta in [(inf, delta_symbol(3)), (fin, finite_symbol([1, 1])),
                        (inf, geometric_symbol(Fraction(1, 2), Fraction(1, 2)))]:
        small = classify_check_all(space, beta, GRID)
        large = classify_check_all(space, beta, big)
        for prop, v in small.items():
            if v.decisive:
                assert large[prop].status is v.status


def test_dual_evidence_fields(inf):
    v = classify_check_all(inf, geometric_symbol(1.0, 0.5), GRID)["power_bounded"]
    ev = v.evidence
    assert "q_k" in ev and "mtop_fit" in ev and "power_bound_q" in ev
    assert ev["grid"]["Q"] == GRID.Q


@pytest.mark.parametrize("space_type, c, r", [
    ("infinite", Fraction(3, 4), Fraction(1, 2)),
    ("finite", Fraction(1, 2), Fraction(1, 2)),
])
def test_dual_evidence_reads_the_first_power_of_a_geometric_beta(fin, inf, small_grid,
                                                                  space_type, c, r):
    """The first power of a geometric beta has no stored window; its
    evidence entry is read from the closed form, not left at -inf."""
    space = inf if space_type == "infinite" else fin
    verdicts = classify_check_all(space, geometric_symbol(c, r), small_grid)
    for v in verdicts.values():
        assert all(math.isfinite(x) for x in v.evidence["L_log_at_Q"])
    # k = 1: max over n of log|c r^{n-1}| - log target_Q(n), with
    # target_Q(n) = e^{Q n} on the infinite type and e^{-n/Q} on the finite one
    Q = small_grid.Q
    rate = Q if space_type == "infinite" else -1.0 / Q
    want = max(math.log(abs(float(c * r ** (n - 1)))) - rate * n
               for n in range(1, small_grid.N + 1))
    got = verdicts["power_bounded"].evidence["L_log_at_Q"][0]
    assert got == pytest.approx(want, rel=1e-12)


def test_dual_circle_modulus_bound_holds_and_replays(fin, small_grid):
    beta = finite_symbol([Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(3, 8)])
    v = classify_check_all(fin, beta, small_grid)["power_bounded"]
    assert v.status is Status.HOLDS
    assert v.certificate.rule == "dual_circle_modulus_bound"
    assert replay_verdict(v)


# ---------------------------------------------------------------------------
# strong tameness and the mixed operator
# ---------------------------------------------------------------------------


def test_strongly_tame_probe_examples(fin, inf, small_grid):
    op = make_hat_operator(inf, finite_symbol([1, 1]))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.HOLDS
    for p, bound in rep.closed_bounds.items():
        assert rep.grid_constants[p] <= bound * (1 + 1e-12)
    assert rep.closed_bounds[1] == pytest.approx(math.e + math.e ** 2, rel=1e-12)

    op = make_check_operator(inf, geometric_symbol(1.0, 0.5))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.HOLDS
    assert rep.closed_bounds[1] == pytest.approx(2.0, rel=1e-9)

    op = make_check_operator(fin, geometric_symbol(1.0, math.exp(-2)))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.HOLDS
    assert rep.closed_bounds[1] == pytest.approx(math.e / (1 - math.exp(-1)), rel=1e-9)
    assert replay_verdict(rep.verdict)


def test_strongly_tame_probe_divergent_weighted_sum(fin, small_grid):
    # dual symbol whose exponentially weighted sum diverges: no closed bound
    op = make_check_operator(fin, geometric_symbol(1.0, Fraction(1, 2)))
    rep = strongly_tame_probe(op, small_grid)
    assert rep.verdict.status is Status.INCONCLUSIVE


@pytest.mark.parametrize("finite_type,env", [(True, GeometricEnvelope(0.5, 0.5)),
                                              (False, GeometricEnvelope(0.5, 1.5))],
                         ids=["finite", "infinite"])
def test_strongly_tame_probe_with_an_unsettled_envelope_is_inconclusive(finite_type, env):
    """An envelope of ratio >= 1/e cannot settle the exponentially weighted
    dual sum on the finite type, nor one of ratio >= 1 the plain sum on the
    infinite type: strong tameness is inconclusive and names the envelope,
    and the other requested modes keep their verdicts."""
    space = finite_type_space() if finite_type else infinite_type_space()
    op = make_check_operator(space, sampled_symbol([Fraction(1, 4), Fraction(1, 8)], env))
    out = classify_operator(op, ["power_bounded", "strongly_tame"], GridParams())
    tame = out["strongly_tame"]
    assert tame.status is Status.INCONCLUSIVE
    assert repr(env) in tame.evidence["reason"]
    alone = classify_operator(op, ["power_bounded"], GridParams())["power_bounded"]
    pb = out["power_bounded"]
    assert (pb.status, pb.certificate, pb.evidence["reason"]) == \
        (alone.status, alone.certificate, alone.evidence["reason"])
    assert strongly_tame_probe(op, GridParams()).bound_kind == "none"


def test_strongly_tame_probe_leaves_a_toeplitz_operator_to_classify_toeplitz(fin, small_grid):
    op = make_toeplitz_operator(fin, finite_symbol([Fraction(1, 4)]),
                                finite_symbol([0, Fraction(1, 8)]))
    with pytest.raises(ValueError, match="classify_toeplitz"):
        strongly_tame_probe(op, small_grid)


def test_finite_type_toeplitz_tame_bound_replays(fin, small_grid):
    out = classify_toeplitz(fin, finite_symbol([Fraction(1, 4)]),
                            finite_symbol([0, Fraction(1, 8)]), small_grid)
    for prop in ("strongly_tame", "m_topologizable"):
        assert out[prop].status is Status.HOLDS
        assert out[prop].certificate.rule == "dual_l1_tame_bound"
        assert replay_verdict(out[prop])


def test_classify_toeplitz_examples(fin, inf, small_grid):
    d = classify_toeplitz(inf, zero_symbol(),
                          geometric_symbol(Fraction(1, 2), Fraction(1, 2)), small_grid)
    assert d["power_bounded"].status is Status.HOLDS
    assert d["m_topologizable"].status is Status.HOLDS
    assert replay_verdict(d["power_bounded"])

    d = classify_toeplitz(fin, delta_symbol(1), zero_symbol(), small_grid)
    assert d["power_bounded"].status is Status.HOLDS  # exact boundary sum = 1
    assert replay_verdict(d["power_bounded"])

    d = classify_toeplitz(inf, zero_symbol(), geometric_symbol(1, 1), small_grid)
    assert d["m_topologizable"].status is Status.INCONCLUSIVE
    assert d["power_bounded"].status is Status.INCONCLUSIVE
    assert d["m_topologizable"].evidence["A_infinite"]

    d = classify_toeplitz(inf, finite_symbol([1]), delta_symbol(Fraction(1, 4)),
                          small_grid)
    # nonzero forward symbol: the sufficient sum cannot certify on Lambda-inf
    assert d["power_bounded"].status is Status.INCONCLUSIVE
    assert d["m_topologizable"].status is Status.HOLDS

    with pytest.raises(UnsupportedSpace):
        classify_toeplitz(finite_type_space(root_alpha(2)), delta_symbol(),
                          zero_symbol(), small_grid)


# -- _dual_log_ratios against the power chain and per-q loop it replaced ----


def _dual_log_ratios_per_q(space, beta, K, n_max, Q):
    """The powers from a ConvPowerTable chain and one reduction per (k, q),
    as _dual_evidence computed L before."""
    alpha_n = space.alpha.block(1, n_max)
    table = ConvPowerTable(float_symbol(beta), n_max)
    L = np.full((K, Q), -math.inf)
    for k in range(1, K + 1):
        pk = table.power(k)
        a = np.abs(float_prefix(pk, readable_length(pk, n_max)))
        if len(a) < n_max:
            a = np.pad(a, (0, n_max - len(a)))
        la = log_nonneg(a)
        for jq, q in enumerate(range(1, Q + 1)):
            log_target = q * alpha_n if not space.is_finite_type else -alpha_n / q
            L[k - 1, jq] = float(np.max(la - log_target))
    return L


@pytest.mark.parametrize("space_type", ["finite", "infinite", "root"])
@pytest.mark.parametrize("beta", [
    finite_symbol([Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(3, 8)]),
    finite_symbol([0, Fraction(3, 2), 0, -1]),
    delta_symbol(Fraction(1, 2)),
    geometric_symbol(Fraction(3, 4), Fraction(1, 2)),
    sampled_symbol([0.5, 0.25, 0.125], GeometricEnvelope(1.0, 0.5)),
], ids=lambda s: s.describe())
def test_dual_log_ratios_bit_identical_to_per_q_loop(fin, inf, space_type, beta):
    space = {"finite": fin, "infinite": inf,
             "root": finite_type_space(root_alpha(2))}[space_type]
    n_max = readable_length(beta, 48)
    got = _dual_log_ratios(space, beta, 12, n_max, 9)
    assert got.tobytes() == _dual_log_ratios_per_q(space, beta, 12, n_max, 9).tobytes()


def _sampled_under(units, r, support, extra):
    """A sampled beta dominated by GeometricEnvelope(1, r): beta_i = u_i r**i
    with |u_i| <= 1, with a gap past the window ("gap"), a support bound past
    it ("support"), one inside it ("inside") or the zero extension."""
    values = [u * r ** i for i, u in enumerate(units)]
    env = GeometricEnvelope(1.0, r)
    if support == "gap":
        return sampled_symbol(values, env)
    if support == "support":
        return sampled_symbol(values, env, support_len=len(values) + extra)
    if support == "inside":
        return sampled_symbol(values, env, support_len=extra % (len(values) + 1))
    return sampled_symbol(values, env, extension="zero")


_PAD = st.integers(0, 3)
_DUAL_BETAS = st.one_of(
    # finite rational, with leading and trailing zeros
    st.builds(lambda lead, body, trail: finite_symbol([0] * lead + body + [0] * trail),
              _PAD, st.lists(st.fractions(-2, 2, max_denominator=16), min_size=1,
                             max_size=12), _PAD),
    st.lists(st.integers(-3, 3), min_size=1, max_size=12).map(finite_symbol),
    # tails that underflow in the powers
    st.sampled_from([[1, 1e-200, 1e-200], [1e-200], [0.5, 1e-300],
                     [1, 1e-160, 0, 1e-160]]).map(finite_symbol),
    # complex entries, also after real leading ones
    st.builds(lambda reals, zs: finite_symbol(reals + zs),
              st.lists(st.floats(-1, 1), max_size=4),
              st.lists(st.complex_numbers(max_magnitude=1), min_size=1, max_size=4)),
    st.builds(geometric_symbol, st.sampled_from([Fraction(3, 4), 1, 0.5, -2]),
              st.sampled_from([Fraction(1, 2), Fraction(-3, 4), 0.9,
                               Fraction(3, 2), 1.25, -1.1])),
    st.builds(_sampled_under, st.lists(st.floats(-1, 1), min_size=1, max_size=40),
              st.sampled_from([0.3, 0.5, 0.9]),
              st.sampled_from(["gap", "support", "inside", "zero"]), st.integers(1, 30)),
    st.just(zero_symbol()),
)


@given(_DUAL_BETAS, st.sampled_from(["finite", "infinite", "root"]),
       st.sampled_from([8, 64, 256]), st.sampled_from([1, 9, 32]))
@settings(max_examples=80, deadline=None)
def test_dual_log_ratios_bit_identical_to_the_power_chain(beta, space_type, n, Q):
    """L from the array sweep equals, byte for byte, L from the
    ConvPowerTable chain at K = 64; q_k equals the per-row reading of it."""
    space = {"finite": finite_type_space(), "infinite": infinite_type_space(),
             "root": finite_type_space(root_alpha(2))}[space_type]
    n_max = readable_length(beta, n)
    want = _dual_log_ratios_per_q(space, beta, 64, n_max, Q)
    assert _dual_log_ratios(space, beta, 64, n_max, Q).tobytes() == want.tobytes()
    ev = _dual_evidence(space, beta, GridParams(N=n, K=64, P=1, Q=Q))
    cap = math.log(1e12)
    q_k = []
    for k in range(64):
        qs = [q for q in range(1, Q + 1) if want[k, q - 1] <= cap]
        q_k.append(qs[0] if qs else None)
    assert ev["q_k"] == q_k


@pytest.mark.parametrize("beta", [finite_symbol([Fraction(1, 2), Fraction(-1, 4), 1]),
                                  geometric_symbol(Fraction(3, 4), Fraction(1, 2))],
                         ids=lambda s: s.describe())
def test_dual_log_ratios_builds_no_symbol_power(inf, monkeypatch, beta):
    calls = {"power": 0, "convolve": 0}
    power, convolve = symbols.ConvPowerTable.power, symbols.convolve

    def counted_power(self, k):
        calls["power"] += 1
        return power(self, k)

    def counted_convolve(a, b, N):
        calls["convolve"] += 1
        return convolve(a, b, N)

    monkeypatch.setattr(symbols.ConvPowerTable, "power", counted_power)
    monkeypatch.setattr(symbols, "convolve", counted_convolve)
    L = _dual_log_ratios(inf, beta, 64, 256, 32)
    assert np.isfinite(L).all()
    assert calls == {"power": 0, "convolve": 0}


@pytest.mark.parametrize("space_type, env", [
    ("infinite", ExponentialEnvelope(1.0, 1, 1)),
    ("finite", ExponentialEnvelope(1.0, 2, -1)),
])
def test_check_with_an_exponential_envelope_is_classified_past_the_truncation(
        fin, inf, small_grid, space_type, env):
    """A sampled beta with a known support and an exponential envelope: the
    power chain cut at N composes the envelope, which the convolution
    rules cannot, and raises; the sweep reads only the powers' values."""
    space = inf if space_type == "infinite" else fin
    beta = sampled_symbol([Fraction(1, 2 ** (i + 1)) for i in range(8)], env,
                          extension="zero")
    with pytest.raises(TailUnbounded):
        ConvPowerTable(float_symbol(beta), small_grid.N).power(small_grid.K)
    out = classify_check_all(space, beta, small_grid)
    assert all(v.status is Status.HOLDS for v in out.values())
    for v in out.values():
        assert replay_verdict(v)


def test_short_sampled_beta_is_classified_inside_its_window(inf):
    beta = sampled_symbol([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
                          GeometricEnvelope(1.0, 0.5))
    out = classify_check_all(inf, beta, GRID)
    assert out["m_topologizable"].status is Status.HOLDS
    assert out["m_topologizable"].certificate.rule == "young_envelope"
    assert out["power_bounded"].status is Status.INCONCLUSIVE


# ---------------------------------------------------------------------------
# classify_operator: one front door, each property decided once per call
# ---------------------------------------------------------------------------


def test_classify_operator_decides_the_hat_m_top_verdict_once(fin, monkeypatch):
    import psop.classify as cl

    calls = []
    real = cl.classify_hat_m_top

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cl, "classify_hat_m_top", counted)
    op = make_hat_operator(fin, finite_symbol([Fraction(1, 2)]))
    out = classify_operator(op, ["topologizable", "mtop", "m_topologizable", "pb",
                                 "Topologizable"], GRID)
    assert list(out) == ["topologizable", "m_topologizable", "power_bounded"]
    assert len(calls) == 1
    assert out["topologizable"].certificate.rule == "implied_by_m_topologizable"
    assert out["topologizable"] == classify_hat_topologizable(fin, op.theta, GRID)


@pytest.mark.parametrize("theta", [finite_symbol([Fraction(1, 2)]), finite_symbol([2, 1])])
def test_classify_operator_matches_the_hat_classifiers(inf, theta):
    op = make_hat_operator(inf, theta)
    out = classify_operator(op, ["topologizable", "m_topologizable", "power_bounded",
                                 "strongly_tame"], GRID)
    assert out["topologizable"] == classify_hat_topologizable(inf, theta, GRID)
    assert out["m_topologizable"] == classify_hat_m_top(inf, theta, GRID)
    assert out["power_bounded"] == classify_hat_power_bounded_infinite(inf, theta, GRID)
    assert out["strongly_tame"] == strongly_tame_probe(op, GRID).verdict


def test_classify_operator_reads_toeplitz_topologizable_off_m_topologizable(fin):
    theta, beta = finite_symbol([Fraction(1, 4)]), finite_symbol([0, Fraction(1, 40)])
    out = classify_operator(make_toeplitz_operator(fin, theta, beta),
                            ["topologizable", "strongly-tame"], GRID)
    tv = classify_toeplitz(fin, theta, beta, GRID)
    assert out["strongly_tame"] == tv["strongly_tame"]
    assert out["topologizable"].prop == "topologizable"
    assert out["topologizable"].status is tv["m_topologizable"].status is Status.HOLDS
    assert out["topologizable"].certificate == tv["m_topologizable"].certificate


def test_classify_operator_rejects_an_unknown_mode(fin):
    with pytest.raises(ValueError, match="unknown classification mode"):
        classify_operator(make_check_operator(fin, delta_symbol(Fraction(1, 2))),
                          ["pb", "bounded"], GRID)


# -- the hat side's power rows ------------------------------------------------


# s_p and median_growth_ratio of classify_hat_power_bounded_infinite, recorded
# before its evidence sweep read the powers as rows
_PINNED_HAT_EVIDENCE = [
    ([0, Fraction(1, 1000)], GridParams(),
     {"s_p": {"1": 0.007389056098930652, "2": 0.05459815003314425,
              "3": 0.4034287934927352, "4": 2.980957987041729, "5": 22.02646579480672,
              "6": 162.75479141900396, "7": 401780.88031183404, "8": 6.809740926502431e+33},
      "median_growth_ratio": {"1": 0.002718281828459046, "2": 0.007389056098930652,
                              "3": 0.020085536923187673, "4": 0.05459815003314425,
                              "5": 0.14841315910257663, "6": 0.4034287934927352,
                              "7": 1.0966331584284588, "8": 2.980957987041729}}),
    ([Fraction(1, 4), Fraction(-1, 8), Fraction(1, 16)], GridParams(N=64, K=16, P=3, Q=8),
     {"s_p": {"1": 6.080116204839084, "2": 282851576299.83997, "3": 2.826200113106124e+24},
      "median_growth_ratio": {"1": 1.0516012347405463, "2": 4.586016389437844,
                              "3": 27.974991708694443}}),
]


@pytest.mark.parametrize("entries,grid,want", _PINNED_HAT_EVIDENCE, ids=["shift", "mixed"])
def test_hat_power_bounded_infinite_evidence_is_pinned(inf, entries, grid, want):
    v = classify_hat_power_bounded_infinite(inf, finite_symbol(entries), grid)
    assert v.status is Status.INCONCLUSIVE
    for key in ("s_p", "median_growth_ratio"):
        assert {p: repr(x) for p, x in v.evidence[key].items()} == \
            {p: repr(x) for p, x in want[key].items()}


@pytest.mark.parametrize("c,r,grid", [
    (Fraction(1, 100), Fraction(7, 8), GridParams()),
    (Fraction(1, 50), Fraction(31, 32), GridParams(N=2100, K=4, P=1)),
], ids=["first_power_past_256", "later_powers_past_2048"])
def test_hat_power_bounded_infinite_evidence_of_a_geometric_law(c, r, grid):
    """A geometric theta on root alpha: the evidence is the chain's, each
    power's lower norm on the coefficients symbol_log_norm_bounds reads of it:
    2048 of the first power, whose terms at p = 8 still grow past the 256
    rows, and at most 2048 of a cut later power, whose terms at p = 1 still
    matter past 2048.  The upper bound of a later power's composed envelope,
    which the evidence does not read, cannot dominate the grade-3 growth; the
    per-power norm bounds raised TailUnbounded on it before the sweep read
    rows."""
    from psop.numerics import sum_exp
    from psop.operators import symbol_log_norm_bounds
    from psop.symbols import symbol_abs_and_env

    space = infinite_type_space(root_alpha(2))
    theta = geometric_symbol(c, r)
    with pytest.raises(TailUnbounded, match="cannot dominate grade-3 growth"):
        symbol_log_norm_bounds(space, ConvPowerTable(float_symbol(theta), 256).power(2), 3)
    K = min(grid.K, 64)
    table = ConvPowerTable(float_symbol(theta), max(grid.N, K + 1))
    log_norms = np.empty((K, grid.P))
    for k in range(1, K + 1):
        vals, _ = symbol_abs_and_env(table.power(k), 2048)
        for p in range(1, grid.P + 1):
            log_norms[k - 1, p - 1] = sum_exp(log_nonneg(vals) +
                                              space.log_weights(1, len(vals), p))[1]
    ratios = np.diff(log_norms, axis=0)
    ratio = np.exp(np.median(ratios[ratios.shape[0] // 2:], axis=0))
    v = classify_hat_power_bounded_infinite(space, theta, grid)
    assert v.status is Status.INCONCLUSIVE
    assert v.evidence["s_p"] == {str(p): float(np.exp(log_norms[:, p - 1].max()))
                                 for p in range(1, grid.P + 1)}
    assert v.evidence["median_growth_ratio"] == {str(p): float(ratio[p - 1])
                                                 for p in range(1, grid.P + 1)}


def _count_chain_calls(monkeypatch) -> dict:
    calls = {"power": 0, "convolve": 0}
    power, convolve = symbols.ConvPowerTable.power, symbols.convolve

    def counted_power(self, k):
        calls["power"] += 1
        return power(self, k)

    def counted_convolve(a, b, N):
        calls["convolve"] += 1
        return convolve(a, b, N)

    monkeypatch.setattr(symbols.ConvPowerTable, "power", counted_power)
    monkeypatch.setattr(symbols, "convolve", counted_convolve)
    return calls


def test_hat_power_sweeps_build_no_symbol_power(fin, inf, monkeypatch):
    from psop.verification import sweep_hat_power_bound

    calls = _count_chain_calls(monkeypatch)
    thetas = [geometric_symbol(Fraction(3, 2), Fraction(7, 8)),
              finite_symbol([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)])]
    assert sweep_hat_power_bound(fin, thetas, "x", 64, 4, 8, corrected=True).passed
    classify_hat_power_bounded_infinite(inf, finite_symbol([0, Fraction(1, 1000)]))
    assert calls == {"power": 0, "convolve": 0}


# -- an exact coefficient past the float range --------------------------------


def test_an_exact_dual_entry_past_the_float_range_is_tail_unbounded(fin, inf):
    """The dual fit succeeds (c0 ~ 5e-35, m0 = 1); the float reads that
    follow raise TailUnbounded, not a raw OverflowError.  The hat side of the
    same entry ends, in every mode on both types, in a verdict or in the
    TailUnbounded of the absolute sum, the nonnegative sum or the norm
    kernels' float read."""
    from psop.operators import check_column_log_norms
    from psop.spaces import explicit_alpha

    grid = GridParams(N=16, K=4, P=2, Q=4)
    beta = finite_symbol([Fraction(10) ** 400])
    space = infinite_type_space(explicit_alpha([1000.0, 2000.0], "arithmetic"))
    with pytest.raises(TailUnbounded, match="overflows a float"):
        classify_check_all(space, beta, grid)
    with pytest.raises(TailUnbounded, match="overflows a float"):
        check_column_log_norms(infinite_type_space(), beta, 2, 8)
    theta = finite_symbol([Fraction(1, 2), Fraction(10) ** 400])
    for space in (fin, inf):
        for mode in ("topologizable", "m_topologizable", "power_bounded"):
            try:
                v = classify_operator(make_hat_operator(space, theta), [mode], grid)[mode]
            except TailUnbounded as err:
                assert "overflows a float" in str(err)
            else:
                assert "overflows a float" in v.evidence["reason"]


# -- golden pins: certificate text, params, witness and evidence together ---


def _golden_cases():
    """Every known-answer case of the oracle tests, one open verdict from each
    classifier, and every verdict of a check dict and of two Toeplitz dicts:
    a holds verdict shares its call's evidence, so keys added after it is
    made appear in it, while an open verdict copies the evidence when it is
    made."""
    from psop.spaces import explicit_alpha
    from test_oracle import KNOWN_ANSWERS

    fin, inf, small = finite_type_space(), infinite_type_space(), GridParams(64, 16, 4, 8)
    F = Fraction
    explicit = infinite_type_space(explicit_alpha(range(1, 9), "arithmetic"))
    root = infinite_type_space(root_alpha(2))
    cases = dict(KNOWN_ANSWERS)
    cases.update({
        "open/hat_m_top": lambda: classify_hat_m_top(
            explicit, finite_symbol([F(1, 2), F(1, 4)]), GRID),
        "open/hat_pb_finite_band": lambda: classify_hat_power_bounded_finite(
            fin, finite_symbol([0.5, 0.5]), GRID),
        "open/hat_pb_finite_tail": lambda: classify_hat_power_bounded_finite(
            fin, sampled_symbol([0.1, 0.1], GeometricEnvelope(1.0, 1.0)), GRID),
        "open/hat_pb_infinite": lambda: classify_hat_power_bounded_infinite(
            inf, finite_symbol([F(1, 2), F(-1, 4)]), small),
        "open/strongly_tame": lambda: strongly_tame_probe(
            make_check_operator(fin, geometric_symbol(1.0, F(1, 2))), small).verdict,
    })
    for prop in ("topologizable", "m_topologizable", "power_bounded"):
        cases[f"check_fin/{prop}"] = lambda prop=prop: classify_check_all(
            fin, finite_symbol([F(1, 2), F(1, 2)]), small)[prop]
        cases[f"check_root/{prop}"] = lambda prop=prop: classify_check_all(
            root, finite_symbol([0.5, 0.7]), small)[prop]
    toeplitz = {"fin_tame": (fin, finite_symbol([F(1, 4)]), finite_symbol([0, F(1, 40)])),
                "fin_open": (fin, finite_symbol([F(1, 4)]), geometric_symbol(F(1, 2), F(1, 2))),
                "inf": (inf, finite_symbol([F(1, 4), F(1, 8)]), finite_symbol([0, F(1, 4)])),
                "inf_zero": (inf, zero_symbol(), finite_symbol([F(1, 2), F(1, 4)]))}
    for name, (space, theta, beta) in toeplitz.items():
        for prop in ("strongly_tame", "m_topologizable", "power_bounded"):
            cases[f"toeplitz_{name}/{prop}"] = lambda a=(space, theta, beta), prop=prop: \
                classify_toeplitz(*a, small)[prop]
    return cases


def _verdict_digest(v) -> str:
    import hashlib
    import json

    from psop.cli import verdict_json

    return hashlib.sha256(json.dumps(verdict_json(v), default=repr).encode()).hexdigest()[:16]


_GOLDEN_DIGESTS = {
    "check_fin/m_topologizable": "d0d3d9efb0da2e77",
    "check_fin/power_bounded": "1bda60398f240796",
    "check_fin/topologizable": "b1d0f9844acb05f7",
    "check_root/m_topologizable": "ee6745a7ed2c9fe1",
    "check_root/power_bounded": "64a0f0e7884bb71d",
    "check_root/topologizable": "f28a86e4088cea46",
    "dual_circle_modulus_bound": "a9fa1f9cc8987064",
    "dual_circle_modulus_exceeds": "75f9fd4102a6dba8",
    "dual_delta_contraction": "e7e90fb267d615f1",
    "dual_disc_modulus_bound": "66e82566048f5ed4",
    "dual_fixed_index_floor": "45f73b089fe6c2df",
    "dual_fixed_index_growth": "956364f52d53750c",
    "dual_geometric_decay_bound": "4bf95192fab8e9e0",
    "dual_geometric_decay_bound_topology": "891af72fee09820c",
    "dual_l1_contraction": "d53428d55a6540a7",
    "dual_l1_decay_bound": "1e0a7dcf65adfa76",
    "dual_l1_exceeds_on_circle": "d972cfc484c95a5e",
    "dual_l1_tame_bound": "f2942f4e92df4524",
    "dual_negbinomial_contraction": "98da197d21d6a8bd",
    "dual_negbinomial_envelope": "d971768f2db317d4",
    "finite_support_topologizable": "3311e22991662460",
    "hat_conv_power_lower_growth": "4c8265d99367d895",
    "hat_delta_power_norms": "25ee4c6f82698fcc",
    "hat_l1_contraction": "f5f17fd757a1d650",
    "hat_l1_exceeds": "78a9b5a4073f0768",
    "hat_per_power_symbol_norms": "99013185482537b5",
    "hat_power_norm_envelope": "b1619d708bb63dda",
    "implied_by_m_topologizable": "6b5e01091eaefe14",
    "implied_by_power_bounded": "ae7c8f72c7a6a7fe",
    "open/hat_m_top": "b6b6d6dc7cd77ed9",
    "open/hat_pb_finite_band": "d3dd3c7655d0d920",
    "open/hat_pb_finite_tail": "e7029fe234943a49",
    "open/hat_pb_infinite": "1a0ae6fc1a4ab264",
    "open/strongly_tame": "ad042dc13ca9baac",
    "strongly_tame_closed_bounds": "13eeb0c1f2355b6c",
    "toeplitz_fin_open/m_topologizable": "39b12f0a9b5aa23b",
    "toeplitz_fin_open/power_bounded": "8b823139fe3c5abb",
    "toeplitz_fin_open/strongly_tame": "ba2596fbc95b02ed",
    "toeplitz_fin_tame/m_topologizable": "431a77fd52f7651a",
    "toeplitz_fin_tame/power_bounded": "2651d67921809bae",
    "toeplitz_fin_tame/strongly_tame": "f2942f4e92df4524",
    "toeplitz_inf/m_topologizable": "494d03a3385db66f",
    "toeplitz_inf/power_bounded": "0379c5799ee57d96",
    "toeplitz_inf/strongly_tame": "ebe9d56b8249f301",
    "toeplitz_inf_zero/m_topologizable": "3b31738606e0d5c6",
    "toeplitz_inf_zero/power_bounded": "8f1fe3e2d7ec7ca7",
    "toeplitz_inf_zero/strongly_tame": "98914142f5bf820f",
    "toeplitz_power_bound_sum": "2651d67921809bae",
    "young_envelope": "4a3a1e4db6750cd3",
    "young_envelope_shifted": "6433dbb67f126ab7",
    "zero_operator": "339e943d9fee452a",
}


@pytest.mark.parametrize("case", sorted(_golden_cases()))
def test_verdict_bytes_are_pinned(case):
    """verdict_json of each case, pinned by digest, one case per test: a
    verdict whose text, params, witness or evidence moves names its case."""
    assert _verdict_digest(_golden_cases()[case]()) == _GOLDEN_DIGESTS[case]
