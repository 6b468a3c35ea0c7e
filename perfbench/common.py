"""Shared pieces of the workloads: operations, the workload interface and
seeded rational generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Optional

from reference import CheckFailed


@dataclass
class Op:
    """One timed operation.  `fault` names the known program fault the
    operation hits every time (fixed inputs, independent of the seed)."""

    label: str
    run: Callable[[], Any]
    data: Any = None
    fault: Optional[str] = None


class Workload:
    """Inputs are built in `build`; `ops` are timed; `check` runs once on the
    first (untimed) pass against the benchmark's own computations, and
    `fingerprint` must repeat exactly on every later pass."""

    name = ""

    def __init__(self, ps: SimpleNamespace, seed: int, outdir):
        self.ps = ps
        self.seed = seed
        self.outdir = outdir
        self.ops: list[Op] = []

    def build(self) -> None:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> None:
        raise NotImplementedError

    def fingerprint(self, op: Op, result: Any) -> Any:
        return result

    def compare(self, op: Op, first: Any, again: Any) -> None:
        if first != again:
            raise CheckFailed(f"{op.label}: output changed between passes")

    def decisive(self, op: Op, result: Any) -> int:
        """Holds/fails verdicts the operation issued (counted on the check pass)."""
        return 0

    def fault_matches(self, op: Op, exc: BaseException) -> bool:
        return False


def rng_for(seed: int, workload: str) -> random.Random:
    return random.Random(f"psop-bench/{workload}/{seed}")


def rational(rng: random.Random, mag: int, denom_pow: int = 3,
             nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-mag, mag), 2 ** rng.randint(0, denom_pow))
        if v or not nonzero:
            return v


def rational_list(rng: random.Random, support: int, mag: int,
                  denom_pow: int = 3) -> list[Fraction]:
    """`support` entries, the last one nonzero, so the support is exact."""
    vals = [rational(rng, mag, denom_pow) for _ in range(support - 1)]
    vals.append(rational(rng, mag, denom_pow, nonzero=True))
    return vals


def text(v: Fraction) -> str:
    """A rational as a psop config literal ("3/8" parses exactly)."""
    return str(Fraction(v))
