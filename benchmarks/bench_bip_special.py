"""EXP-BIP — optimally solvable special cases (Coffman et al.).

Section I notes Coffman et al. solved cycles, trees and bipartite
transfer graphs optimally.  Our :mod:`repro.core.special_cases` module
handles bipartite graphs (hence forests) for *arbitrary* capacities —
including the odd mixes that make the general problem NP-hard — via
node splitting + König coloring.  The table certifies optimality
(rounds == Δ' == LB1) across disk-addition shapes and compares against
what the general algorithm and Saia produce on the same inputs.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.core.lower_bounds import lb1
from repro.core.special_cases import bipartite_optimal_schedule_compact
from repro.graphs.array_backend import lower_instance
from repro.workloads.generators import bipartite_instance


def solve_bipartite(inst):
    return bipartite_optimal_schedule_compact(lower_instance(inst))


def test_bip_optimality_sweep(benchmark):
    table = Table(
        "EXP-BIP: bipartite transfer graphs — optimal for arbitrary (odd) c_v",
        ["old", "new", "items", "c_old/c_new", "Δ'", "bip-opt", "general", "saia"],
    )
    for old, new, items, c_old, c_new in (
        (6, 2, 100, 1, 3),
        (12, 4, 400, 1, 5),
        (20, 8, 1500, 3, 7),
        (40, 10, 5000, 1, 9),
    ):
        inst = bipartite_instance(old, new, items, c_old, c_new, seed=items)
        special = solve_bipartite(inst)
        special.validate(inst)
        general = plan(inst, method="general").schedule
        saia = plan(inst, method="saia").schedule
        table.add_row(
            old, new, items, f"{c_old}/{c_new}", lb1(inst),
            special.num_rounds, general.num_rounds, saia.num_rounds,
        )
        assert special.num_rounds == lb1(inst)
        assert special.num_rounds <= general.num_rounds
    emit(table)

    inst = bipartite_instance(12, 4, 400, 1, 5, seed=400)
    benchmark(solve_bipartite, inst)


def test_bip_auto_dispatch(benchmark):
    inst = bipartite_instance(8, 4, 300, old_capacity=1, new_capacity=3, seed=9)

    def run():
        return plan(inst, method="auto").schedule

    sched = benchmark(run)
    assert sched.method == "bipartite_optimal"
    assert sched.num_rounds == lb1(inst)
