"""EXP-T51 — Theorem 5.1: the general algorithm is (1 + o(1))-approx.

The theorem bounds the palette by ``OPT + O(sqrt(OPT))``.  OPT is
NP-hard, so the table reports the excess over the certified lower
bound ``LB <= OPT`` — an over-estimate of the true excess — against
the budget ``2·ceil(sqrt(LB)) + 2``, across sizes and capacity mixes
(odd capacities force the general path).  The approximation factor
must approach 1 as LB grows (Corollary 5.3).
"""

import math

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.general import GeneralSolverStats, general_schedule_compact
from repro.core.lower_bounds import lower_bound
from repro.graphs.array_backend import lower_instance
from repro.workloads.generators import hotspot_instance, random_instance


def solve_general(inst, stats=None):
    return general_schedule_compact(lower_instance(inst), stats=stats)

SWEEP = [
    (8, 40, {1: 0.5, 3: 0.5}),
    (12, 150, {1: 0.3, 2: 0.4, 5: 0.3}),
    (25, 600, {1: 0.2, 3: 0.5, 4: 0.3}),
    (50, 2500, {1: 0.2, 2: 0.3, 3: 0.3, 7: 0.2}),
    (80, 8000, {1: 0.1, 3: 0.4, 5: 0.3, 8: 0.2}),
]


def test_t51_excess_sweep(benchmark):
    table = Table(
        "EXP-T51 (Theorem 5.1): general algorithm — excess over LB vs O(√LB) budget",
        ["disks", "items", "LB", "rounds", "excess", "budget 2⌈√LB⌉+2", "ratio", "q growths"],
    )
    for n, m, mix in SWEEP:
        inst = random_instance(n, m, capacities=mix, seed=n)
        stats = GeneralSolverStats()
        sched = solve_general(inst, stats=stats)
        sched.validate(inst)
        lb = lower_bound(inst)
        excess = sched.num_rounds - lb
        budget = 2 * math.isqrt(lb) + 2
        table.add_row(
            n, m, lb, sched.num_rounds, excess, budget,
            sched.num_rounds / lb, stats.palette_growths,
        )
        assert excess <= budget
    emit(table)

    inst = random_instance(25, 600, capacities={1: 0.2, 3: 0.5, 4: 0.3}, seed=25)
    benchmark(solve_general, inst)


def test_t51_ratio_approaches_one(benchmark):
    """Corollary 5.3: the approximation factor tends to 1 as OPT grows."""
    table = Table(
        "EXP-T51b: approximation factor vs instance scale (hotspot family)",
        ["items", "LB", "rounds", "ratio (upper bd.)"],
    )
    ratios = []
    for m in (50, 200, 800, 3200):
        inst = hotspot_instance(16, num_hot=3, num_items=m, hot_capacity=3, cold_capacity=1, seed=m)
        sched = solve_general(inst)
        sched.validate(inst)
        lb = lower_bound(inst)
        ratio = sched.num_rounds / lb
        ratios.append(ratio)
        table.add_row(m, lb, sched.num_rounds, ratio)
    emit(table)
    assert ratios[-1] <= ratios[0] + 1e-9  # no degradation with scale
    assert ratios[-1] < 1.05

    inst = hotspot_instance(16, 3, 800, hot_capacity=3, cold_capacity=1, seed=800)
    benchmark(solve_general, inst)
