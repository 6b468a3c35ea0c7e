"""`exact`: rational work on the Fraction/integer path.

Operations, in pass order:
  * forward identity cases: convolve(phi, theta), conv_power and
    conv_power_binary of theta for k = 2..8, N = 64;
  * dual identity cases: convolve(psi, beta), conv_power and
    conv_power_binary of beta, N = 64;
  * application cases: hat_apply, check_apply and toeplitz_apply on a
    rational element of length 64;
  * classify cases: classify_check_all on both space types, then
    oracle.replay_verdict on every decisive verdict, over a fixed mix of
    dual symbol classes (CLASSIFY_CASES).
The checks compare every exact output with dense Fraction products written
in reference.py, never with psop.oracle.
"""

from __future__ import annotations

from fractions import Fraction

import reference as ref
from common import Op, Workload, rational, rational_list, rng_for

N = 64
K_MAX = 8
IDENTITY_CASES = 40      # of each direction
APPLY_CASES = 40
# dual symbol classes per space type, one classify case each.  On the finite
# type the class fixes the power-bounded route, and with it the replay's
# cost: l1 < 1 (l1 decay bound), the circle-modulus bound (whose replay is
# the slowest), a positive sum above 1 (circle modulus exceeds).  Geometric
# ratios are fixed per slot for the same reason.
CLASSIFY_CASES = {
    True: ("l1_below_one", "l1_below_one", "circle_bound", "sum_above_one",
           ("geometric", Fraction(3, 8)), ("geometric", Fraction(3, 4)),
           "delta", "delta"),
    False: ("finite", "finite", "finite", "finite",
            ("geometric", Fraction(3, 4)), ("geometric", Fraction(5, 4)),
            "delta", "delta"),
}
# sup |beta| on the circles stays below 1 while sum |beta_i| = 9/8
CIRCLE_BOUND = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(3, 8))


def _entries(symbol) -> list[Fraction]:
    return [Fraction(v) for v in symbol.entries]


class ExactWorkload(Workload):
    name = "exact"

    def build(self) -> None:
        ps = self.ps
        rng = rng_for(self.seed, self.name)
        sym, ops_mod = ps.symbols, ps.operators

        def finite(support, mag=4):
            return sym.finite_symbol(rational_list(rng, support, mag))

        ops = []
        for i in range(IDENTITY_CASES):
            phi, theta = finite(1 + i % 8), finite(1 + (3 * i + 1) % 8)
            ops.append(Op("identity_forward", self._identity(phi, theta),
                          data=(phi, theta)))
        for i in range(IDENTITY_CASES):
            beta, psi = finite(1 + (5 * i + 2) % 8), finite(1 + i % 8)
            ops.append(Op("identity_dual", self._identity(psi, beta),
                          data=(psi, beta)))
        for i in range(APPLY_CASES):
            theta, beta = finite(1 + i % 8, 8), finite(1 + (3 * i + 2) % 8, 8)
            x = ops_mod.Element(tuple(rational(rng, 8) if rng.random() < 0.5 else 0
                                      for _ in range(N)))
            ops.append(Op("apply", self._apply(theta, beta, x),
                          data=(theta, beta, x)))
        grid = ps.classify.GridParams()
        for finite_type in (False, True):
            space = ps.spaces.finite_type_space() if finite_type \
                else ps.spaces.infinite_type_space()
            for i, cls in enumerate(CLASSIFY_CASES[finite_type]):
                beta = self._beta(rng, cls, i, finite_type)
                ops.append(Op("classify_replay", self._classify(space, beta, grid),
                              data=(space, beta)))
        self.ops = ops

    def _beta(self, rng, cls, i, finite_type):
        """A dual symbol of the given class inside the classifiers'
        hypotheses; the seed draws its entries, signs and scale."""
        sym = self.ps.symbols
        if isinstance(cls, tuple):
            _, r = cls
            return sym.geometric_symbol(Fraction(rng.randint(1, 4), 2 ** rng.randint(0, 2)), r)
        if cls == "delta":
            return sym.delta_symbol(rational(rng, 2 if finite_type else 4, nonzero=True))
        support = 1 + i % 4 if cls == "finite" else 2 + i % 3
        if cls == "circle_bound":
            # z -> -z and a global sign keep every circle's modulus
            sign, alt = rng.choice((-1, 1)), rng.choice((-1, 1))
            return sym.finite_symbol([sign * alt ** k * v for k, v in enumerate(CIRCLE_BOUND)])
        vals = rational_list(rng, support, 4 if finite_type else 6)
        if cls == "l1_below_one":
            l1 = sum(abs(v) for v in vals)
            vals = [v / (2 * l1) for v in vals]
        elif cls == "sum_above_one":
            vals = [abs(v) for v in vals]
            vals[0] = Fraction(1, 2) + vals[0] / 8
            vals[-1] = max(vals[-1], Fraction(1, 2))
        return sym.finite_symbol(vals)

    def _identity(self, a, b):
        symbols = self.ps.symbols

        def run():
            comp = symbols.convolve(a, b, N)
            powers = [symbols.conv_power(b, k, N) for k in range(2, K_MAX + 1)]
            binary = [symbols.conv_power_binary(b, k, N) for k in range(2, K_MAX + 1)]
            return (tuple(comp.entries), tuple(tuple(p.entries) for p in powers),
                    tuple(tuple(p.entries) for p in binary))
        return run

    def _apply(self, theta, beta, x):
        ops_mod = self.ps.operators

        def run():
            return (ops_mod.hat_apply(theta, x).values,
                    ops_mod.check_apply(beta, x).values,
                    ops_mod.toeplitz_apply(theta, beta, x).values)
        return run

    def _classify(self, space, beta, grid):
        classify, oracle = self.ps.classify, self.ps.oracle

        def run():
            verdicts = classify.classify_check_all(space, beta, grid)
            statuses = {prop: v.status.value for prop, v in verdicts.items()}
            replays = {prop: oracle.replay_verdict(v)
                       for prop, v in verdicts.items() if v.decisive}
            return statuses, replays
        return run

    def decisive(self, op, result):
        if op.label != "classify_replay":
            return 0
        statuses, _ = result
        return sum(s != "inconclusive" for s in statuses.values())

    def check(self, op, result) -> None:
        if op.label == "identity_forward":
            self._check_forward(op, result)
        elif op.label == "identity_dual":
            self._check_dual(op, result)
        elif op.label == "apply":
            self._check_apply(op, result)
        else:
            self._check_classify(op, result)

    def _check_forward(self, op, result) -> None:
        """Columns of the dense lower triangular products: M_phi M_theta e_1
        is phi*theta and M_theta^k e_1 is theta^{*k}, on the first N rows."""
        phi, theta = (_entries(s) for s in op.data)
        comp, powers, binary = result
        m_phi, m_theta = ref.lower_matrix(phi, N), ref.lower_matrix(theta, N)
        col = ref.matvec(m_theta, [Fraction(1)] + [Fraction(0)] * (N - 1))
        where = f"forward identity phi={phi} theta={theta}"
        ref.check_exact(comp, ref.matvec(m_phi, col), "convolve " + where)
        for k in range(2, K_MAX + 1):
            col = ref.matvec(m_theta, col)
            ref.check_exact(powers[k - 2], col, f"conv_power k={k} " + where)
            ref.check_exact(binary[k - 2], col, f"conv_power_binary k={k} " + where)

    def _check_dual(self, op, result) -> None:
        """Last columns of the dense upper triangular products, read bottom
        up: M_beta M_psi e_N gives psi*beta and M_beta^k e_N gives beta^{*k}."""
        psi, beta = (_entries(s) for s in op.data)
        comp, powers, binary = result
        m_beta, m_psi = ref.upper_matrix(beta, N), ref.upper_matrix(psi, N)
        last = [Fraction(0)] * (N - 1) + [Fraction(1)]
        where = f"dual identity beta={beta} psi={psi}"
        ref.check_exact(comp, ref.matvec(m_beta, ref.matvec(m_psi, last))[::-1],
                        "convolve " + where)
        col = ref.matvec(m_beta, last)
        for k in range(2, K_MAX + 1):
            col = ref.matvec(m_beta, col)
            ref.check_exact(powers[k - 2], col[::-1], f"conv_power k={k} " + where)
            ref.check_exact(binary[k - 2], col[::-1], f"conv_power_binary k={k} " + where)

    def _check_apply(self, op, result) -> None:
        theta, beta, x = op.data
        th, be, xs = _entries(theta), _entries(beta), [Fraction(v) for v in x.values]
        hat, check, toep = result
        where = f"theta={th} beta={be}"
        ref.check_exact(hat, ref.hat_dense(th, xs), "hat_apply " + where)
        ref.check_exact(check, ref.check_dense(be, xs), "check_apply " + where)
        ref.check_exact(toep, ref.toeplitz_dense(th, be, xs), "toeplitz_apply " + where)

    def _check_classify(self, op, result) -> None:
        space, beta = op.data
        statuses, replays = result
        where = f"classify_check_all {space.describe()} {beta.describe()}"
        ref.check_hierarchy(statuses, where)
        for prop, ok in replays.items():
            ref.check_replayed(ok, f"{where} {prop}")
