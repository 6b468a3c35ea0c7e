"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Criterion 2 sweeps the proved inequalities.  The displayed finite-type power
bound is false under the library's 1-based indexing (notes/decisions.md has
the proof of the corrected bound, the counterexamples and the sharpness), so
the suite sweeps only its corrected form; the test re-derives the refutation
exactly and checks that the literal sweep still catches it.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from psop import (
    Status,
    basis_element,
    blackbox_symbol,
    classify_hat_power_bounded_finite,
    compute_orbit,
    delta_symbol,
    finite_symbol,
    finite_type_space,
    geometric_symbol,
    infinite_type_space,
    laurent_coeffs,
    make_hat_operator,
    rational_symbol,
    replay_verdict,
    toeplitz_from_function,
)
from psop.classify import GridParams
from psop.verification import (
    classifier_battery,
    identity_suite,
    inequality_suite,
    sweep_hat_power_bound,
    sweep_nuclear_decay_bound,
    sweep_partial_sum_weight_bound,
)

FIN = finite_type_space()
INF = infinite_type_space()


def _line(num: int, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))


@pytest.fixture(scope="module")
def identities():
    t0 = time.monotonic()
    outcomes = identity_suite(cases=200, N=64, k_max=8)
    return outcomes, time.monotonic() - t0


def test_criterion_1_composition_identities(identities):
    outcomes, elapsed = identities
    by_name = {o.name: o for o in outcomes}
    fwd = by_name["forward_composition_columns"]
    dual = by_name["dual_composition_matrices"]
    ok = fwd.passed and dual.passed and elapsed < 30.0
    _line(1, ok, f"forward {fwd.detail['agree']}/200, dual {dual.detail['agree']}/200, "
                 f"{elapsed:.1f}s")
    assert fwd.passed and fwd.detail["agree"] == 200
    assert dual.passed and dual.detail["agree"] == 200
    assert elapsed < 30.0


def _exp_terms_product(a: dict, b: dict) -> dict:
    """Product of two sums sum_x c_x t^x, keyed by the exact exponent x."""
    out: dict = {}
    for x, c in a.items():
        for y, d in b.items():
            out[x + y] = out.get(x + y, 0) + c * d
    return out


def _exp_terms_value(terms: dict) -> float:
    return math.fsum(c * math.exp(float(x)) for x, c in sorted(terms.items()))


def _finite_power_sides(theta: list[int], p: int, k: int, n: int):
    """Both sides of the finite-type power bound at (p, k, n), as exact
    exponent sums: the column norm sum_i |theta^{*k}_i| e^{-(n+i)/p}, the
    displayed bound (sum_i |theta_i| e^{-(i+1)/(2p)})^k e^{-n/(2p)}, and the
    displayed bound times e^{(k-1)/(2p)}."""
    embedded = {Fraction(-(i + 1), 2 * p): abs(c) for i, c in enumerate(theta)}
    power = {0: 1}          # theta^{*k}, keyed by the index i
    stated = {Fraction(-n, 2 * p): 1}
    for _ in range(k):
        power = _exp_terms_product(power, dict(enumerate(theta)))
        stated = _exp_terms_product(stated, embedded)
    lhs = {Fraction(-(n + i), p): abs(c) for i, c in power.items()}
    corrected = _exp_terms_product(stated, {Fraction(k - 1, 2 * p): 1})
    return tuple(_exp_terms_value(t) for t in (lhs, stated, corrected))


def test_criterion_2_proved_inequalities():
    t0 = time.monotonic()
    outcomes = inequality_suite(symbols_per_case=50, n_max=256, p_max=8, k_max=32)
    elapsed = time.monotonic() - t0
    for o in outcomes:
        print("   ", o.line())
    failed = [o for o in outcomes if not o.passed]
    names = {o.name for o in outcomes}

    # The literal finite-type display ||T^k e_n||_p <= ||theta||_{2p}^k
    # ||e_n||_{2p} is refuted in notes/decisions.md.  Exact check at
    # p = 1, k = 2, n = 1, independent of psop.operators.
    p, k, n = 1, 2, 1
    refuted = {}
    for label, theta in (("[1,1]", [1, 1]), ("delta", [1])):
        refuted[label] = _finite_power_sides(theta, p, k, n)
    # Sweep check: the literal sweep still catches the violation.
    pair = [finite_symbol([1, 1]), delta_symbol()]
    literal = sweep_hat_power_bound(FIN, pair, "literal", n_max=4, p_max=1, k_max=2)
    fixed = sweep_hat_power_bound(FIN, pair, "corrected", n_max=4, p_max=1,
                                  k_max=2, corrected=True)

    ok = not failed and elapsed < 120.0
    detail = (f"{len(outcomes) - len(failed)}/{len(outcomes)} sweeps, {elapsed:.1f}s; "
              f"literal finite-type power bound refuted (min_slack "
              f"{literal.min_slack:.3f}, notes/decisions.md)")
    _line(2, ok, detail)
    assert elapsed < 120.0
    assert not failed, (
        f"proved inequalities {[o.name for o in failed]} fail on the sweep grid")
    assert "hat_power_bound_finite_corrected" in names, (
        "the corrected finite-type power bound (notes/decisions.md) is not swept")
    for label, (lhs, stated, corrected) in refuted.items():
        assert lhs > stated, (
            f"theta={label}: the displayed bound should be violated at p=1, k=2, "
            f"n=1 (notes/decisions.md), got lhs={lhs!r} <= rhs={stated!r}")
        assert lhs <= corrected, (
            f"theta={label}: the corrected bound e^{{(k-1)/(2p)}} (notes/decisions.md) "
            f"should hold, got lhs={lhs!r} > rhs={corrected!r}")
    assert not literal.passed
    assert abs(literal.min_slack - (-0.5)) <= 1e-12, literal.min_slack
    assert fixed.passed, fixed.min_slack


def test_inequality_suite_sweeps_proved_bounds_only():
    outcomes = inequality_suite(symbols_per_case=3, n_max=16, p_max=2, k_max=4)
    for o in outcomes:
        assert o.passed, o.line()
    names = [o.name for o in outcomes]
    assert "hat_power_bound_finite_corrected" in names
    assert not [name for name in names if name.endswith("_as_stated")], names


def test_criterion_3_helper_inequalities():
    t0 = time.monotonic()
    ni = sweep_partial_sum_weight_bound(n_max=10_000, p_max=8)
    fnd = sweep_nuclear_decay_bound(n_max=10_000, k_max=8)
    elapsed = time.monotonic() - t0
    ok = ni.passed and fnd.passed and elapsed < 5.0
    _line(3, ok, f"partial-sum slack {ni.min_slack:.2e}, decay slack "
                 f"{fnd.min_slack:.2e}, {elapsed:.2f}s")
    assert ni.passed and fnd.passed
    assert elapsed < 5.0


def test_criterion_4_power_bound_decisiveness():
    grid = GridParams()
    holds = classify_hat_power_bounded_finite(
        FIN, geometric_symbol(Fraction(1, 2), Fraction(1, 2)), grid)
    fails = classify_hat_power_bounded_finite(FIN, finite_symbol([1, 1]), grid)
    ok = holds.status is Status.HOLDS and fails.status is Status.FAILS
    ok = ok and replay_verdict(holds) and replay_verdict(fails)
    logs = fails.evidence["first_column_log_norms"]
    monotone = all(b > a for a, b in zip(logs, logs[1:])) and len(logs) == 32
    ok = ok and monotone
    _line(4, ok, f"holds+fails decisive, both replayed, first-column norms "
                 f"monotone over k<=32")
    assert holds.status is Status.HOLDS and replay_verdict(holds)
    assert fails.status is Status.FAILS and replay_verdict(fails)
    assert monotone


def test_criterion_5_classifier_hierarchy():
    outcomes = classifier_battery(count=30)
    by_name = {o.name: o for o in outcomes}
    ok = all(o.passed for o in outcomes)
    _line(5, ok, f"checked {by_name['classifier_hierarchy'].detail['checked']} "
                 f"symbols: hierarchy, replay, 2x-grid stability")
    for o in outcomes:
        assert o.passed, (o.name, o.detail)


def test_criterion_6_laurent_quadrature():
    t0 = time.monotonic()
    F = rational_symbol([1], [2, -1], 0.0, 2.0, "disc")
    co = laurent_coeffs(F, 0.9, -20, 20, 512)
    rational_err = max(abs(co.coeff(n) - 2.0 ** (-n - 1)) for n in range(0, 21))
    G = rational_symbol([0, 0, 0, 1], [1], 0.0, math.inf, "entire")
    mono = laurent_coeffs(G, 1.0, -8, 8, 64)
    mono_err = max(abs(mono.coeff(n) - (1.0 if n == 3 else 0.0))
                   for n in range(-8, 9))
    co2 = laurent_coeffs(F, 0.5, -20, 20, 512)
    radius_ok = all(abs(co.coeff(n) - co2.coeff(n)) <= co.error(n) + co2.error(n)
                    for n in range(-20, 21))
    elapsed = time.monotonic() - t0
    ok = rational_err <= 1e-10 and mono_err <= 1e-13 and radius_ok and elapsed < 5.0
    _line(6, ok, f"rational max err {rational_err:.2e}, monomial {mono_err:.2e}, "
                 f"radius-independent={radius_ok}, {elapsed:.2f}s")
    assert rational_err <= 1e-10
    assert mono_err <= 1e-13
    assert radius_ok
    assert elapsed < 5.0


def test_criterion_7_end_to_end_exponential_symbol():
    F = blackbox_symbol(lambda z: cmath.exp(1.0 / z), 0.0, math.inf, "entire")
    rep = toeplitz_from_function(F, INF, 1.0)
    a_sum = rep.backward_sum
    target = math.e  # e - 1 + |a_0| with a_0 = 1
    mtop = rep.verdicts["m_topologizable"]
    ok = abs(a_sum - target) <= 1e-8 and mtop.status is Status.HOLDS
    _line(7, ok, f"|A - e| = {abs(a_sum - target):.2e}, m-topologizable "
                 f"{mtop.status.value}")
    assert abs(a_sum - target) <= 1e-8
    assert mtop.status is Status.HOLDS
    assert replay_verdict(mtop)


def test_criterion_8_cesaro_means():
    K, ps = 24, [1, 2, 4]
    # identity: Cesaro means are the start element itself
    op = make_hat_operator(FIN, delta_symbol())
    x = basis_element(1, 32, FIN)
    rec = compute_orbit(op, x, K, ps)
    ident_ok = True
    for j, p in enumerate(ps):
        want = math.log(math.exp(-1.0 / p))
        ident_ok &= bool(np.allclose(rec.log_cesaro[:, j], want, rtol=1e-12))
    # scalar half: ||T^[k] e_1||_p * k = (1 - 2^{-k}) w(1, p)
    op = make_hat_operator(FIN, delta_symbol(Fraction(1, 2)))
    rec = compute_orbit(op, x, K, ps)
    scalar_ok = True
    for j, p in enumerate(ps):
        for k in range(1, K + 1):
            want = (1.0 - 0.5 ** k) / k * math.exp(-1.0 / p)
            got = math.exp(rec.log_cesaro[k - 1, j])
            scalar_ok &= abs(got - want) <= 1e-12 * want
    # shift: ||T^[k] e_1||_p = (1/k) sum_{j=2}^{k+1} e^{-j/p} -> 0
    op = make_hat_operator(FIN, finite_symbol([0, 1]))
    rec = compute_orbit(op, basis_element(1, 40, FIN), K, ps)
    shift_ok = True
    for j, p in enumerate(ps):
        for k in range(1, K + 1):
            want = math.fsum(math.exp(-m / p) for m in range(2, k + 2)) / k
            got = math.exp(rec.log_cesaro[k - 1, j])
            shift_ok &= abs(got - want) <= 1e-12 * want
        shift_ok &= math.exp(rec.log_cesaro[K - 1, j]) < math.exp(rec.log_cesaro[0, j])
    ok = ident_ok and scalar_ok and shift_ok
    _line(8, ok, f"identity={ident_ok}, scalar={scalar_ok}, shift={shift_ok} "
                 f"(closed forms at 1e-12)")
    assert ident_ok and scalar_ok and shift_ok


def test_criterion_9_oracle_agreement(identities):
    outcomes, _ = identities
    orc = {o.name: o for o in outcomes}["oracle_apply_agreement"]
    ok = orc.passed and orc.detail["agree"] == 200
    _line(9, ok, f"{orc.detail['agree']}/200 exact agreements")
    assert orc.passed and orc.detail["agree"] == 200
