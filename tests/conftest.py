"""Shared test helpers: deterministic random instance factories."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.cluster.events import ItemMigrated
from repro.cluster.layout import Layout
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import CompactGraph
from repro.graphs.coloring.bipartite import compact_konig_coloring
from repro.graphs.euler import compact_euler_circuits, compact_euler_orientation
from repro.graphs.multigraph import EdgeId, Multigraph


def random_multigraph(
    num_nodes: int,
    num_edges: int,
    seed: int = 0,
    allow_isolated: bool = True,
) -> Multigraph:
    """A random loop-free multigraph with integer node names."""
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    graph = Multigraph(nodes=nodes if allow_isolated else [])
    for _ in range(num_edges):
        u, v = rng.sample(nodes, 2)
        graph.add_edge(u, v)
    return graph


def random_instance(
    num_nodes: int,
    num_edges: int,
    capacity_choices: Sequence[int] = (1, 2, 3, 4),
    seed: int = 0,
) -> MigrationInstance:
    """A random migration instance with a capacity mix."""
    rng = random.Random(seed)
    graph = random_multigraph(num_nodes, num_edges, seed=seed)
    caps = {v: rng.choice(list(capacity_choices)) for v in graph.nodes}
    return MigrationInstance(graph, caps)


def even_instance(
    num_nodes: int,
    num_edges: int,
    capacity_choices: Sequence[int] = (2, 4, 6),
    seed: int = 0,
) -> MigrationInstance:
    """A random instance whose capacities are all even."""
    assert all(c % 2 == 0 for c in capacity_choices)
    return random_instance(num_nodes, num_edges, capacity_choices, seed=seed)


def konig_coloring(graph: Multigraph) -> Dict[EdgeId, int]:
    """:func:`compact_konig_coloring` of ``graph``, keyed by edge id."""
    compact = CompactGraph.from_multigraph(graph)
    colors = compact_konig_coloring(
        compact.num_nodes,
        list(zip(compact.edge_u, compact.edge_v)),
        compact.node_reprs(),
    )
    return dict(zip(compact.edge_ids, colors))


def _euler_rows(graph: Multigraph):
    """``graph``'s CSR snapshot and the rows the Euler walk takes."""
    c = CompactGraph.from_multigraph(graph)
    return c, (c.indptr, c.inc_edge, c.inc_other, c.degree, c.num_edges)


def euler_circuits(graph: Multigraph):
    """:func:`compact_euler_circuits` of ``graph``'s snapshot, lifted to
    ``(edge_id, from_node, to_node)`` steps."""
    compact, rows = _euler_rows(graph)
    nodes, eids = compact.nodes, compact.edge_ids
    return [
        [(eids[e], nodes[u], nodes[v]) for e, u, v in circuit]
        for circuit in compact_euler_circuits(*rows)
    ]


def euler_orientation(graph: Multigraph):
    """:func:`compact_euler_orientation` of ``graph``'s snapshot, lifted
    to ``{edge_id: (tail, head)}`` in circuit order."""
    compact, rows = _euler_rows(graph)
    order, tail, head = compact_euler_orientation(*rows)
    nodes = compact.nodes
    return {
        compact.edge_ids[e]: (nodes[tail[e]], nodes[head[e]]) for e in order
    }


def replay_log(report, initial: Layout) -> Layout:
    """``initial`` after the ``ItemMigrated`` events of an executor's
    ``report.log``, applied in time order; each item must sit on its
    event's source first."""
    layout = initial.copy()
    for event in sorted(report.log.of_type(ItemMigrated), key=lambda e: e.time):
        assert layout.disk_of(event.item_id) == event.source, event
        layout.place(event.item_id, event.target)
    return layout


@pytest.fixture
def triangle_instance() -> MigrationInstance:
    """The Figure 1/2 shape: K3 with parallel edges."""
    moves = [("a", "b"), ("a", "b"), ("b", "c"), ("a", "c"), ("a", "c")]
    return MigrationInstance.from_moves(moves, {"a": 2, "b": 1, "c": 2})
