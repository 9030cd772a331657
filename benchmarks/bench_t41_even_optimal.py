"""EXP-T41 — Theorem 4.1: the even-capacity scheduler is optimal.

The paper proves that with all ``c_v`` even, a schedule of exactly
``Δ' = max_v ceil(d_v/c_v)`` rounds exists.  The table sweeps instance
size, density and capacity mixes and reports ``rounds == Δ'`` for every
cell (optimality is *certified* because ``Δ'`` is a lower bound); the
benchmark times the full pipeline (augment → Euler → Euler-partition split).
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.lower_bounds import lb1
from repro.graphs.array_backend import lower_instance
from repro.workloads.generators import clique_instance, random_instance


def solve_even(inst):
    return even_optimal_schedule_compact(lower_instance(inst))


SWEEP = [
    # (disks, items, capacity mix)
    (6, 30, {2: 1.0}),
    (10, 100, {2: 0.5, 4: 0.5}),
    (20, 400, {2: 0.3, 4: 0.4, 6: 0.3}),
    (40, 1500, {2: 0.25, 4: 0.5, 8: 0.25}),
    (80, 5000, {4: 0.5, 8: 0.5}),
]


def test_t41_optimality_sweep(benchmark):
    table = Table(
        "EXP-T41 (Theorem 4.1): even capacities — rounds vs Δ' (optimal iff equal)",
        ["disks", "items", "cap mix", "Δ' = LB1", "rounds", "optimal"],
    )
    for n, m, mix in SWEEP:
        inst = random_instance(n, m, capacities=mix, seed=n + m)
        sched = solve_even(inst)
        sched.validate(inst)
        optimal = sched.num_rounds == lb1(inst)
        table.add_row(n, m, str(sorted(mix)), lb1(inst), sched.num_rounds, str(optimal))
        assert optimal
    emit(table)

    inst = random_instance(20, 400, capacities={2: 0.5, 4: 0.5}, seed=1)
    benchmark(solve_even, inst)


def test_t41_clique_family(benchmark):
    table = Table(
        "EXP-T41b: K_n cliques with even capacity c=2 (Figure 2 family)",
        ["n", "items/pair", "Δ'", "rounds", "optimal"],
    )
    for n, per_pair in ((3, 8), (5, 6), (8, 4), (12, 3)):
        inst = clique_instance(n, per_pair, capacity=2)
        sched = solve_even(inst)
        sched.validate(inst)
        table.add_row(n, per_pair, lb1(inst), sched.num_rounds, str(sched.num_rounds == lb1(inst)))
        assert sched.num_rounds == lb1(inst)
    emit(table)
    benchmark(solve_even, clique_instance(8, 4, capacity=2))


def test_bench_large_even_instance(benchmark):
    inst = random_instance(80, 5000, capacities={4: 0.5, 8: 0.5}, seed=99)
    sched = benchmark(solve_even, inst)
    assert sched.num_rounds == lb1(inst)
