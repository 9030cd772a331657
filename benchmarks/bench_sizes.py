"""EXP-SIZES — non-uniform items: size-class scheduling.

The paper's unit-size assumption hides straggler waste: under the
fair-share round model a round lasts as long as its largest transfer.
The table mixes a few large objects into a small-object batch and
compares wall-clock of (a) scheduling everything together vs
(b) size-class separation — the knob that restores the unit-size
assumption per round.
"""

import random

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.extensions.sizes import size_class_schedule, simulated_time
from repro.workloads.generators import random_instance


def sized_workload(heavy_fraction: float, heavy_size: float, seed: int = 5):
    rng = random.Random(seed)
    inst = random_instance(12, 240, capacities={1: 0.3, 2: 0.4, 4: 0.3}, seed=seed)
    sizes = {
        eid: (heavy_size if rng.random() < heavy_fraction else 1.0)
        for eid in inst.graph.edge_ids()
    }
    return inst, sizes


def test_sizes_heavy_fraction_sweep(benchmark):
    table = Table(
        "EXP-SIZES: mixed vs size-class scheduling (heavy items of size 64)",
        ["heavy %", "mixed rounds", "mixed time", "classed rounds", "classed time", "speedup"],
    )
    for pct in (0, 2, 5, 10, 25):
        inst, sizes = sized_workload(pct / 100.0, 64.0, seed=pct + 1)
        mixed = plan(inst).schedule
        classed = size_class_schedule(inst, sizes)
        t_mixed = simulated_time(inst, mixed, sizes)
        t_classed = simulated_time(inst, classed, sizes)
        table.add_row(
            pct, mixed.num_rounds, t_mixed, classed.num_rounds, t_classed,
            t_mixed / t_classed,
        )
        if 0 < pct <= 10:
            assert t_classed <= t_mixed  # separation pays in the sparse-heavy regime
    emit(table)

    inst, sizes = sized_workload(0.05, 64.0)
    benchmark(size_class_schedule, inst, sizes)


def test_sizes_class_count_tradeoff(benchmark):
    """Finer classes cut stragglers but add round-count overhead."""
    table = Table(
        "EXP-SIZESb: bucketing base vs time (sizes spread over 1..64)",
        ["base", "classes", "rounds", "time"],
    )
    from repro.extensions.sizes import size_classes

    rng = random.Random(9)
    inst = random_instance(12, 240, capacities={1: 0.3, 2: 0.4, 4: 0.3}, seed=9)
    sizes = {
        eid: rng.choice([1.0, 1.0, 1.0, 4.0, 16.0, 64.0])
        for eid in inst.graph.edge_ids()
    }
    for base in (64.0, 8.0, 2.0):
        classed = size_class_schedule(inst, sizes, base=base)
        table.add_row(
            base, len(size_classes(sizes, base=base)), classed.num_rounds,
            simulated_time(inst, classed, sizes),
        )
    emit(table)

    benchmark(simulated_time, inst, plan(inst).schedule, sizes)
