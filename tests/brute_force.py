"""Brute-force optimal schedules for tiny instances: the test oracle.

The heterogeneous migration problem is NP-hard (it contains multigraph
edge coloring at ``c_v = 1``), but instances with a dozen items can be
solved exactly by iterative-deepening search.  This search shares no
code with the library's solvers or lower bounds: it starts at the
pigeonhole bound ``max_v ⌈deg(v) / c_v⌉`` and tries every packing, so
the tests can check ``exact_bb``, the general solver and the Section
III bounds against an optimum none of them computed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.multigraph import EdgeId, Node

# Search is exponential in the number of items; refuse beyond this.
MAX_ITEMS = 16


def brute_force_schedule(instance: MigrationInstance) -> MigrationSchedule:
    """The provably minimum-round schedule (exponential time).

    Raises:
        ValueError: if the instance has more than :data:`MAX_ITEMS`
            items.
    """
    m = instance.num_items
    if m > MAX_ITEMS:
        raise ValueError(f"brute force limited to {MAX_ITEMS} items, got {m}")
    if m == 0:
        return MigrationSchedule([], method="brute_force")

    graph = instance.graph
    k = max(
        -(-graph.degree(v) // instance.capacity(v)) for v in graph.nodes
    )
    while True:
        assignment = _search(instance, k)
        if assignment is not None:
            rounds: List[List[EdgeId]] = [[] for _ in range(k)]
            for eid, r in assignment.items():
                rounds[r].append(eid)
            schedule = MigrationSchedule(rounds, method="brute_force")
            schedule.validate(instance)
            return schedule
        k += 1


def brute_force_rounds(instance: MigrationInstance) -> int:
    """Just the optimal round count."""
    return brute_force_schedule(instance).num_rounds


def _search(instance: MigrationInstance, k: int) -> Optional[Dict[EdgeId, int]]:
    """DFS: can all edges be packed into ``k`` rounds?

    Edges are ordered hardest-first (by endpoint pressure); symmetry
    over round indices is broken by only allowing an edge into at most
    one currently-empty round.
    """
    graph = instance.graph
    edges = sorted(
        graph.edge_ids(),
        key=lambda e: -(
            graph.degree(graph.endpoints(e)[0]) / instance.capacity(graph.endpoints(e)[0])
            + graph.degree(graph.endpoints(e)[1]) / instance.capacity(graph.endpoints(e)[1])
        ),
    )
    load: Dict[Tuple[Node, int], int] = {}
    used_rounds = 0
    assignment: Dict[EdgeId, int] = {}

    def place(i: int) -> bool:
        nonlocal used_rounds
        if i == len(edges):
            return True
        eid = edges[i]
        u, v = graph.endpoints(eid)
        tried_fresh = False
        for r in range(k):
            if r >= used_rounds:
                if tried_fresh:
                    break  # all empty rounds are interchangeable
                tried_fresh = True
            if (
                load.get((u, r), 0) + 1 > instance.capacity(u)
                or load.get((v, r), 0) + 1 > instance.capacity(v)
            ):
                continue
            load[(u, r)] = load.get((u, r), 0) + 1
            load[(v, r)] = load.get((v, r), 0) + 1
            bumped = r >= used_rounds
            if bumped:
                used_rounds = r + 1
            assignment[eid] = r
            if place(i + 1):
                return True
            del assignment[eid]
            load[(u, r)] -= 1
            load[(v, r)] -= 1
            if bumped:
                used_rounds = r
        return False

    return assignment if place(0) else None
