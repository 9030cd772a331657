"""Round balancing: evening out round sizes at fixed makespan.

The schedulers optimize the *number* of rounds; nothing makes the
rounds similar in size, and under bandwidth-splitting execution a
lopsided schedule alternates long, crowded rounds with near-empty
ones.  :func:`equalize_rounds` is a post-pass that migrates edges from
over-full rounds into under-full ones whenever both endpoints have
slack there — makespan and feasibility preserved by construction, the
size variance monotonically non-increasing.

Balanced rounds matter operationally: the per-round interference spike
(see :mod:`repro.cluster.service`) is proportional to the round's
concurrency, so flattening sizes flattens the impact on clients.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.multigraph import Node


def round_size_stats(schedule: MigrationSchedule) -> Dict[str, float]:
    """min / max / stdev of round sizes (0s for empty schedules)."""
    sizes = [len(r) for r in schedule.rounds]
    if not sizes:
        return {"min": 0.0, "max": 0.0, "stdev": 0.0}
    return {
        "min": float(min(sizes)),
        "max": float(max(sizes)),
        "stdev": statistics.pstdev(sizes) if len(sizes) > 1 else 0.0,
    }


def equalize_rounds(
    schedule: MigrationSchedule,
    instance: MigrationInstance,
    passes: int = 4,
) -> MigrationSchedule:
    """Move edges from the largest rounds into the smallest.

    Each pass scans rounds largest-first and, for every edge, looks
    for a strictly smaller round where both endpoints still have
    transfer slots; the first such move is applied.  Terminates after
    ``passes`` sweeps or when a sweep makes no move.
    """
    rounds = [list(r) for r in schedule.rounds]
    if len(rounds) <= 1:
        return MigrationSchedule(rounds, method=f"{schedule.method}+balanced")
    graph = instance.graph

    loads: List[Dict[Node, int]] = []
    for rnd in rounds:
        load: Dict[Node, int] = {}
        for eid in rnd:
            u, v = graph.endpoints(eid)
            load[u] = load.get(u, 0) + 1
            load[v] = load.get(v, 0) + 1
        loads.append(load)

    for _sweep in range(passes):
        moved = False
        order = sorted(range(len(rounds)), key=lambda i: -len(rounds[i]))
        for src_idx in order:
            for eid in list(rounds[src_idx]):
                u, v = graph.endpoints(eid)
                targets = sorted(
                    (i for i in range(len(rounds)) if len(rounds[i]) + 1 < len(rounds[src_idx])),
                    key=lambda i: len(rounds[i]),
                )
                for dst_idx in targets:
                    if (
                        loads[dst_idx].get(u, 0) < instance.capacity(u)
                        and loads[dst_idx].get(v, 0) < instance.capacity(v)
                    ):
                        rounds[src_idx].remove(eid)
                        rounds[dst_idx].append(eid)
                        for node in (u, v):
                            loads[src_idx][node] -= 1
                            loads[dst_idx][node] = loads[dst_idx].get(node, 0) + 1
                        moved = True
                        break
        if not moved:
            break

    balanced = MigrationSchedule(rounds, method=f"{schedule.method}+balanced")
    balanced.validate(instance)
    return balanced
