"""EXP-THR — the throttle curve: migration speed vs client calm.

Aqueduct migrates under a performance guarantee; in the paper's model
the guarantee is headroom: schedule against ``max(1, floor(θ·c_v))``
lanes and leave the rest to clients.  The table sweeps θ on the VoD
scenario and reports the two degradation components: interference
falls with θ (fewer lanes busy), displacement rises (hot items wait
longer on the wrong disks) — the curve operators actually pick on.

A second table shows round balancing (`analysis.balance`): evening out
round sizes at fixed makespan to flatten per-round interference
spikes.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.balance import equalize_rounds, round_size_stats
from repro.analysis.tables import Table
from repro.extensions.throttle import throttle_tradeoff
from repro.workloads.generators import random_instance
from repro.workloads.scenarios import vod_rebalance_scenario


def test_thr_tradeoff_curve(benchmark):
    scenario = vod_rebalance_scenario(num_disks=12, num_items=400, seed=29)
    points = throttle_tradeoff(
        scenario.cluster, scenario.context, thetas=(1.0, 0.75, 0.5, 0.25)
    )
    table = Table(
        "EXP-THR: throttle level θ vs migration duration and degradation",
        ["θ", "rounds", "duration", "interference", "displacement", "total"],
    )
    for p in points:
        table.add_row(
            p.theta, p.rounds, p.duration, p.interference, p.displacement,
            p.total_degradation,
        )
    emit(table)
    assert points[0].rounds <= points[-1].rounds
    assert points[-1].displacement >= points[0].displacement

    benchmark(
        throttle_tradeoff, scenario.cluster, scenario.context, (1.0, 0.5)
    )


def test_thr_round_balancing(benchmark):
    table = Table(
        "EXP-THRb: round-size balancing at fixed makespan",
        ["workload", "rounds", "stdev before", "stdev after", "max before", "max after"],
    )
    for seed in (71, 72, 73):
        inst = random_instance(12, 300, capacities={1: 0.4, 2: 0.4, 4: 0.2}, seed=seed)
        sched = plan(inst, method="greedy").schedule
        before = round_size_stats(sched)
        balanced = equalize_rounds(sched, inst)
        after = round_size_stats(balanced)
        table.add_row(
            f"random seed {seed}", sched.num_rounds,
            before["stdev"], after["stdev"], before["max"], after["max"],
        )
        assert after["stdev"] <= before["stdev"] + 1e-9
        assert balanced.num_rounds == sched.num_rounds
    emit(table)

    inst = random_instance(12, 300, capacities={1: 0.4, 2: 0.4, 4: 0.2}, seed=71)
    sched = plan(inst, method="greedy").schedule
    benchmark(equalize_rounds, sched, inst)
