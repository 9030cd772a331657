"""Optimal schedulers for special transfer-graph classes.

Coffman et al. (cited in Section I) solved several transfer-graph
classes optimally in the multi-transfer model; this module reproduces
the two classes that matter most in practice, for *arbitrary* (odd or
even) transfer constraints:

* **Bipartite transfer graphs** — the disk-addition/removal shape (old
  disks send, new disks receive).  Split every node ``v`` into ``c_v``
  copies and spread its edges evenly: each copy has degree at most
  ``Δ' = max_v ceil(d_v/c_v)``, the split graph is still bipartite, and
  König's edge-coloring theorem colors it with exactly its max degree.
  Contracting copies yields a ``Δ'``-round schedule — optimal, since
  ``Δ' = LB1`` is a lower bound.
* **Forests** — trees are bipartite, so the same argument applies; the
  entry point exists separately because detection is cheaper and the
  class is common (hierarchical replication topologies).

These beat the general Section V algorithm's guarantee (they are
*exactly* optimal), so :func:`repro.plan` in ``auto`` mode prefers
them when the transfer graph qualifies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import CompactInstance
from repro.graphs.coloring.bipartite import (
    NotBipartiteError,
    bipartite_coloring,
    bipartite_sides,
    compact_bipartite_sides,
    compact_konig_coloring,
)
from repro.graphs.multigraph import EdgeId, Multigraph, Node


def is_bipartite_instance(instance: MigrationInstance) -> bool:
    """True iff the transfer graph is bipartite (ignoring isolated nodes)."""
    try:
        bipartite_sides(instance.graph)
    except NotBipartiteError:
        return False
    return True


def is_forest_instance(instance: MigrationInstance) -> bool:
    """True iff the transfer graph is a forest (no cycles, no parallels)."""
    graph = instance.graph
    if graph.max_multiplicity() > 1:
        return False
    seen: Set[Node] = set()
    for start in graph.nodes:
        if start in seen:
            continue
        # BFS counting edges: a component with e >= n has a cycle.
        comp_nodes = 0
        comp_edges = 0
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp_nodes += 1
            for eid in graph.incident_edges(x):
                comp_edges += 1
                y = graph.other_endpoint(eid, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if comp_edges // 2 >= comp_nodes:
            return False
    return True


def bipartite_optimal_schedule(instance: MigrationInstance) -> MigrationSchedule:
    """Optimal (``Δ'``-round) schedule for a bipartite transfer graph.

    Works for arbitrary transfer constraints — including the odd
    capacities that make the general problem NP-hard.

    Raises:
        NotBipartiteError: if the transfer graph is not bipartite.
    """
    bipartite_sides(instance.graph)  # raises if not bipartite
    if instance.num_items == 0:
        return MigrationSchedule([], method="bipartite_optimal")

    split, edge_map = _split_evenly(instance)
    coloring = bipartite_coloring(split)
    original = {eid: coloring[seid] for eid, seid in edge_map.items()}
    schedule = MigrationSchedule.from_coloring(original, method="bipartite_optimal")
    schedule.validate(instance)
    assert schedule.num_rounds == instance.delta_prime(), (
        "König contraction must land exactly on Δ'"
    )
    return schedule


def bipartite_optimal_schedule_compact(ci: CompactInstance) -> MigrationSchedule:
    """Array-backend :func:`bipartite_optimal_schedule` (byte-identical).

    The round-robin node split becomes arithmetic on the capacity
    array: copy ``(v, k)`` is split index ``offset[v] + k`` (copies are
    inserted per node in node order, ``k`` ascending — exactly the
    object's ``add_node`` sequence), and split edge ``i`` is original
    edge ``i`` (sequential ``add_edge``).  Copy reprs are rebuilt as
    the tuple repr strings ``"(<node repr>, <k>)"`` so the König
    colorer's repr-sorted side orders match the object engine's.
    """
    graph = ci.graph
    compact_bipartite_sides(graph)  # raises if not bipartite
    m = graph.num_edges
    if m == 0:
        return MigrationSchedule([], method="bipartite_optimal")

    caps = ci.capacities
    n = graph.num_nodes
    offset = [0] * (n + 1)
    for v in range(n):
        offset[v + 1] = offset[v] + caps[v]
    reprs = graph.node_reprs()
    split_repr: List[str] = [
        "(" + reprs[v] + ", " + str(k) + ")"
        for v in range(n)
        for k in range(caps[v])
    ]
    cursor = [0] * n
    split_edges: List[Tuple[int, int]] = []
    edge_u, edge_v = graph.edge_u, graph.edge_v
    for e in range(m):
        u, v = edge_u[e], edge_v[e]
        cu = offset[u] + cursor[u] % caps[u]
        cv = offset[v] + cursor[v] % caps[v]
        cursor[u] += 1
        cursor[v] += 1
        split_edges.append((cu, cv))

    coloring = compact_konig_coloring(offset[n], split_edges, split_repr)
    original = {graph.edge_ids[e]: coloring[e] for e in range(m)}
    schedule = MigrationSchedule.from_coloring(original, method="bipartite_optimal")
    schedule.validate(ci.source)
    assert schedule.num_rounds == ci.delta_prime(), (
        "König contraction must land exactly on Δ'"
    )
    return schedule


def _split_evenly(
    instance: MigrationInstance,
) -> Tuple[Multigraph, Dict[EdgeId, EdgeId]]:
    """Split ``v`` into ``c_v`` copies, spreading edges round-robin.

    Copy degrees are ``<= ceil(d_v / c_v) <= Δ'``, and splitting
    preserves bipartiteness (copies inherit their original's side).
    """
    split = Multigraph()
    cursor: Dict[Node, int] = {}
    for v in instance.graph.nodes:
        cursor[v] = 0
        for k in range(instance.capacity(v)):
            split.add_node((v, k))
    edge_map: Dict[EdgeId, EdgeId] = {}
    for eid, u, v in instance.graph.edges():
        cu = (u, cursor[u] % instance.capacity(u))
        cv = (v, cursor[v] % instance.capacity(v))
        cursor[u] += 1
        cursor[v] += 1
        edge_map[eid] = split.add_edge(cu, cv)
    return split, edge_map


def try_special_case_schedule(
    instance: MigrationInstance,
) -> Optional[MigrationSchedule]:
    """Return an optimal schedule if the instance is a special class.

    Checks bipartiteness (which subsumes forests); returns None when
    the instance needs the general machinery.
    """
    if is_bipartite_instance(instance):
        return bipartite_optimal_schedule(instance)
    return None
