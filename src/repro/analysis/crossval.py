"""Cross-validation of schedulers: the fuzz harness.

Defense in depth for the correctness story: the schedulers validate
their own output via :meth:`MigrationSchedule.validate`, and the
harness re-checks every schedule with the independent validator
:func:`repro.checks.certify.verify_schedule` (no solver or schedule
code reused) while it runs *all* schedulers on randomized instances
and cross-checks:

* every schedule passes both validators;
* no scheduler beats the certified lower bound (that would expose a
  lower-bound bug, the scariest kind);
* the guaranteed orderings hold (optimal methods ≤ approximations ≤
  their proven caps).

``tests/integration/test_fuzz.py`` runs the harness on every CI pass;
it is also usable standalone for longer soaks::

    python -m repro.analysis.crossval --trials 500
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.checks.certify import verify_schedule
from repro.core.lower_bounds import lb1, lower_bound
from repro.pipeline.planner import plan
from repro.workloads.generators import random_instance


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    trials: int = 0
    per_method_rounds: Dict[str, List[int]] = field(default_factory=dict)
    worst_ratio: float = 1.0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


DEFAULT_METHODS = ("auto", "general", "saia", "greedy", "homogeneous")

#: Size caps of the random fuzz instances (disks, items).
MAX_DISKS = 14
MAX_ITEMS = 120


def fuzz_schedulers(
    trials: int = 50,
    methods: Sequence[str] = DEFAULT_METHODS,
    seed: int = 0,
) -> FuzzReport:
    """Run all schedulers on randomized instances and cross-check.

    Never raises for scheduler misbehaviour — failures are collected in
    the report so a fuzz run surfaces *all* problems at once.
    """
    rng = random.Random(seed)
    report = FuzzReport(trials=trials)
    for trial in range(trials):
        n = rng.randint(3, MAX_DISKS)
        m = rng.randint(1, MAX_ITEMS)
        mix_choices = [
            {1: 1.0},
            {2: 0.5, 4: 0.5},
            {1: 0.4, 3: 0.6},
            {1: 0.2, 2: 0.3, 5: 0.5},
        ]
        inst = random_instance(
            n, m, capacities=rng.choice(mix_choices), seed=rng.randrange(1 << 30)
        )
        lb = lower_bound(inst)
        rounds_by_method: Dict[str, int] = {}
        for method in methods:
            tag = f"trial {trial} method {method}"
            try:
                sched = plan(inst, method=method, seed=trial).schedule
                sched.validate(inst)
                verify_schedule(inst, sched.rounds)
            except Exception as exc:  # noqa: BLE001 - fuzz collects everything
                report.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
                continue
            rounds_by_method[method] = sched.num_rounds
            report.per_method_rounds.setdefault(method, []).append(sched.num_rounds)
            if lb and sched.num_rounds < lb:
                report.failures.append(
                    f"{tag}: {sched.num_rounds} rounds beats lower bound {lb}"
                )
            if lb:
                report.worst_ratio = max(report.worst_ratio, sched.num_rounds / lb)

        # Cross-method invariants.
        if "general" in rounds_by_method and lb:
            budget = lb + 2 * math.isqrt(lb) + 2
            if rounds_by_method["general"] > budget:
                report.failures.append(
                    f"trial {trial}: general used {rounds_by_method['general']} "
                    f"> theorem budget {budget}"
                )
        if "greedy" in rounds_by_method:
            cap = max(1, 2 * lb1(inst) - 1)
            if rounds_by_method["greedy"] > cap:
                report.failures.append(
                    f"trial {trial}: greedy {rounds_by_method['greedy']} > cap {cap}"
                )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="scheduler fuzz harness")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = fuzz_schedulers(trials=args.trials, seed=args.seed)
    print(f"trials: {report.trials}, worst ratio vs LB: {report.worst_ratio:.3f}")
    for method, rounds in sorted(report.per_method_rounds.items()):
        print(f"  {method:12s} mean rounds {sum(rounds) / len(rounds):7.2f}")
    if report.failures:
        print(f"\n{len(report.failures)} FAILURES:")
        for failure in report.failures[:20]:
            print(" -", failure)
        return 1
    print("all cross-checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
