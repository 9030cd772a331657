"""EXP-SPACE — the cost of space constraints (Hall et al.'s model).

The paper assumes unconstrained space; its predecessor (Hall et al.,
cited as [4]) showed one spare unit per disk keeps migration
schedulable within constant factor of the space-oblivious optimum.
The table sweeps spare space from roomy to a single unit and reports
the round overhead and bypass usage of the space-feasibility
post-pass — the constant-factor behaviour should be visible.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.extensions.space import (
    default_occupancy,
    make_space_feasible,
    spare_space,
)
from repro.workloads.generators import random_instance


def build_swap(num_pairs: int, items_per_disk: int, capacity: int = 4):
    """Pairwise swap: full disks exchange their entire contents.

    With ``c_v = 4`` a capacity-optimal round moves 2 items into each
    disk; space freed by outgoing items is only usable next round, so
    fewer than 2 spare units per disk forces the schedule to stretch —
    exactly Hall et al.'s regime.
    """
    from repro.core.problem import MigrationInstance

    moves = []
    nodes = []
    for p in range(num_pairs):
        a, b = f"a{p}", f"b{p}"
        nodes += [a, b]
        moves.extend([(a, b)] * items_per_disk)
        moves.extend([(b, a)] * items_per_disk)
    inst = MigrationInstance.from_moves(moves, {v: capacity for v in nodes})
    sched = plan(inst).schedule
    occ = default_occupancy(inst)
    return inst, sched, occ


def test_space_spare_sweep(benchmark):
    table = Table(
        "EXP-SPACE: round overhead vs spare space (pairwise swaps, c_v = 4)",
        ["spare units", "base rounds", "space rounds", "overhead x", "bypassed items"],
    )
    inst, sched, occ = build_swap(5, 12)
    for spare in (12, 6, 2, 1):
        space = {v: occ[v] + spare for v in occ}
        spaced = make_space_feasible(inst, sched, occupancy=occ, space=space)
        table.add_row(
            spare, sched.num_rounds, spaced.num_rounds, spaced.overhead,
            len(spaced.bypassed_items),
        )
        assert spaced.overhead <= 3.0  # Hall et al.-style constant factor
    emit(table)

    space = {v: occ[v] + 1 for v in occ}
    benchmark(make_space_feasible, inst, sched, occ, space)


def test_space_cycle_bypass(benchmark):
    """Full rotation cycles can only proceed via bypass nodes."""
    from repro.core.problem import MigrationInstance

    table = Table(
        "EXP-SPACEb: full rotation cycles broken by bypass nodes",
        ["cycle len", "rounds", "bypassed", "feasible"],
    )
    for n in (3, 5, 8):
        nodes = [f"n{i}" for i in range(n)]
        moves = [(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
        caps = {v: 1 for v in nodes}
        caps["spare"] = 1
        inst = MigrationInstance.from_moves(moves, caps, extra_nodes=["spare"])
        sched = plan(inst).schedule
        occ = {v: 1 for v in nodes}
        occ["spare"] = 0
        space = {v: 1 for v in nodes}
        space["spare"] = 1
        spaced = make_space_feasible(inst, sched, occupancy=occ, space=space)
        table.add_row(n, spaced.num_rounds, len(spaced.bypassed_items), "yes")
        assert spaced.bypassed_items
    emit(table)

    nodes = [f"n{i}" for i in range(5)]
    moves = [(nodes[i], nodes[(i + 1) % 5]) for i in range(5)]
    caps = {v: 1 for v in nodes}
    caps["spare"] = 1
    inst = MigrationInstance.from_moves(moves, caps, extra_nodes=["spare"])
    sched = plan(inst).schedule
    occ = {v: 1 for v in nodes}
    occ["spare"] = 0
    space = {v: 1 for v in nodes}
    space["spare"] = 1
    benchmark(make_space_feasible, inst, sched, occ, space)
