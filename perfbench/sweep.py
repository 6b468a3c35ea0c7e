"""`sweep`: the proved-inequality sweeps of psop.verification at the
acceptance grid's shape (n <= 256, p <= 8, k <= 32).

One operation is one call of a verification sweep function on a batch of
two symbols, so the sweeps' thread pool has two cells to share.  Symbol
values come from the seed; the geometric ratios are a fixed set, because
the time of a finite-type sweep depends mostly on the ratio's bit size and
a seed-dependent mix of ratios would make the pass time depend on the seed.
"""

from __future__ import annotations

from fractions import Fraction

import reference as ref
from common import Op, Workload, rational_list, rng_for

N_MAX, P_MAX, K_MAX = 256, 8, 32
# window of the float powers the checks hand to psop's column kernel: the
# finite supports here (k * 8 entries at most) fit whole, and the part of a
# geometric power beyond it is below e^-400 of the column sum
WINDOW = 2312
SAMPLES_PER_SYMBOL = 2


class SweepWorkload(Workload):
    name = "sweep"

    def build(self) -> None:
        ps = self.ps
        rng = rng_for(self.seed, self.name)
        sym = ps.symbols
        fin = ps.spaces.finite_type_space()
        inf = ps.spaces.infinite_type_space()

        def geo(r: Fraction):
            c = Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 2))
            return sym.geometric_symbol(c if rng.random() < 0.8 else -c, r)

        def finite(support: int, mag: int = 8):
            return sym.finite_symbol(rational_list(rng, support, mag))

        verify = ps.verification
        ops = []

        def hat(label, space, batch, k_max, corrected=False):
            ops.append(Op(label, lambda: verify.sweep_hat_power_bound(
                space, batch, label, N_MAX, P_MAX, k_max, corrected=corrected),
                data={"space": space, "thetas": batch, "k_max": k_max,
                      "corrected": corrected}))

        for r, s in ((Fraction(5, 8), 4), (Fraction(7, 8), 8)):
            hat("hat_column_bound_finite", fin, [geo(r), finite(s)], 1)
        for r, s in ((Fraction(1, 2), 2), (Fraction(3, 4), 4), (Fraction(7, 8), 8)):
            hat("hat_power_bound_finite_corrected", fin, [geo(r), finite(s)],
                K_MAX, corrected=True)
        hat("hat_column_bound_infinite", inf, [finite(3, 4), finite(6, 4)], 1)
        for s in (2, 4):
            hat("hat_power_bound_infinite", inf, [finite(s, 4), finite(6, 4)], K_MAX)
        # delta at n = 1 meets the corrected bound with equality
        hat("delta_power_bound_finite_corrected", fin, [sym.delta_symbol()],
            K_MAX, corrected=True)

        betas = self._certified_betas(rng, inf, 4)
        ops.append(Op("dual_column_bound_infinite",
                      lambda: verify.sweep_dual_column_bound(
                          inf, betas, "dual_column_bound_infinite", N_MAX, P_MAX)))

        tame_thetas = [geo(Fraction(1, 2)), geo(Fraction(3, 8)), finite(3), finite(5)]
        tame_ops = [ps.operators.make_hat_operator(fin, th) for th in tame_thetas]
        ops.append(Op("tame_hat_finite",
                      lambda: verify.sweep_tame_bounds(tame_ops, "tame_hat_finite"),
                      data={"ops": tame_ops}))
        self.ops = ops
        self.check_rng = rng_for(self.seed, self.name + "/check")

    def _certified_betas(self, rng, space, count):
        """Finite rational and growing geometric symbols with their dual
        membership certificates (the inputs sweep_dual_column_bound takes)."""
        sym, spaces = self.ps.symbols, self.ps.spaces
        out = []
        for i in range(count):
            if i % 2:
                beta = sym.finite_symbol(rational_list(rng, 1 + i, 6))
            else:
                beta = sym.geometric_symbol(Fraction(rng.randint(1, 4), 2 ** rng.randint(0, 2)),
                                            Fraction(rng.randint(1, 6), 4))
            cert = spaces.fit_dual_certificate(space, beta, N=512)
            if cert is None:
                raise RuntimeError(f"no dual certificate for {beta.describe()}")
            out.append((beta, cert))
        return out

    def fingerprint(self, op, outcome):
        return (outcome.name, outcome.passed, outcome.min_slack,
                repr(outcome.detail))

    def decisive(self, op, outcome):
        if op.label != "tame_hat_finite":
            return 0
        probe = self.ps.classify.strongly_tame_probe
        return sum(probe(o).verdict.decisive for o in op.data["ops"])

    def check(self, op, outcome) -> None:
        if op.label.startswith("delta_"):
            ref.check_equality_at_zero(outcome.min_slack, op.label)
            return
        ref.check_slack(outcome.min_slack, outcome.passed, op.label)
        if op.data is None or "thetas" not in op.data:
            return
        for theta in op.data["thetas"]:
            for _ in range(SAMPLES_PER_SYMBOL):
                self._check_sample(op, theta, outcome)

    def _check_sample(self, op, theta, outcome) -> None:
        """Recompute both sides of ||T^k e_n||_p <= C ||theta||_{2p}^k
        ||e_n||_{2p} at one seeded grid point, compare them with psop's
        column and symbol-norm kernels, and require the sweep's minimal
        slack not to exceed the exact slack there."""
        ps, d, rng = self.ps, op.data, self.check_rng
        space = d["space"]
        finite = space.is_finite_type
        p = rng.randint(1, P_MAX)
        n = rng.choice([1, rng.randint(1, N_MAX)])
        k = rng.randint(1, d["k_max"])
        where = f"{op.label} {theta.describe()} p={p} k={k} n={n}"
        q = 2 * p
        lo, hi = ps.operators.symbol_log_norm_bounds(space, theta, q)
        table = ps.symbols.ConvPowerTable(ps.symbols.float_symbol(theta), WINDOW)
        if theta.kind.value == "geometric":
            # negative-binomial closed forms; at k > 1 psop's column kernel
            # gets the power's first WINDOW entries as a finite symbol
            c, r = Fraction(theta.c), Fraction(theta.r)
            want_norm = ref.log_geometric_symbol_norm(c, r, q)
            lhs = ref.log_geometric_column_norm(c, r, k, n, p)
            power = table.power(k)
            if k > 1:
                power = ps.symbols.finite_symbol(list(power.entries))
        else:
            entries = [Fraction(v) for v in theta.entries]
            want_norm = ref.log_symbol_norm(finite, entries, q)
            lhs = ref.log_column_norm(finite, ref.cauchy_power(entries, k), n, p)
            power = table.power(k)
        got = float(ps.operators.hat_column_log_norms(space, power, p, N_MAX)[n - 1])
        ref.check_log_close(got, lhs, "column norm " + where)
        ref.check_log_close(lo, want_norm, "symbol norm " + where)
        ref.check_log_at_least(hi, want_norm, "symbol norm majorant " + where)
        rhs = ref.log_power_bound_rhs(finite, want_norm, k, n, p, d["corrected"])
        ref.check_bound(lhs, rhs, "bound " + where)
        ref.check_slack_reached(outcome.min_slack, rhs - lhs, "sweep " + where,
                                (k + 1) * ref.LOG_TOL)
