"""Flat CSR array backend for the solver kernels.

The object graph (:class:`~repro.graphs.multigraph.Multigraph` plus the
dict-of-dict structures built on top of it) is easy to audit against
the paper, but every adjacency step costs a hash lookup and every
temporary subgraph costs thousands of small dict allocations.  On
100k+-edge transfer multigraphs those constant factors dominate the
near-linear algorithm of Theorem 5.1, so the three polynomial
schedulers (Theorem 4.1, König, Theorem 5.1) run on flat arrays:

* :class:`CompactGraph` — an immutable CSR (compressed sparse row)
  snapshot of a ``Multigraph``.  Node indices are dense ints in the
  graph's insertion order; edge indices are dense ints in ``edges()``
  enumeration order; per-node incident rows replicate
  ``incident_edges(v)`` order exactly.
* :class:`CompactInstance` — a lowered migration instance: a
  ``CompactGraph`` plus a capacity array aligned to node indices and a
  reference to the source object instance (for the cold paths —
  lower bounds, validation — that stay on the object graph).

Lowering is one-way: results come back through :func:`lift_rounds` /
:func:`lift_coloring`, which map edge indices to edge ids; no graph is
ever rebuilt from the arrays.

Iteration-order contract (load-bearing: the kernels' schedules depend
on these orders, and the frozen digests pin them):

* ``nodes[i]`` is the i-th node of ``graph.nodes`` (dict insertion
  order of the object graph).
* ``edge_ids[e]`` is the e-th edge of ``graph.edges()`` (``_edges``
  dict insertion order).
* Row ``inc_edge[indptr[v]:indptr[v+1]]`` lists incident edge indices
  in ``graph.incident_edges(v)`` order, which the ``Multigraph``
  invariant guarantees equals the global ``edges()`` order filtered to
  the edges incident to ``v``.  Self-loops appear once per row but
  contribute 2 to ``degree``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.graphs.multigraph import EdgeId, Multigraph, Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.problem import MigrationInstance


class CompactGraph:
    """Immutable CSR snapshot of a :class:`Multigraph`.

    All structure lives in flat arrays of ints; the only objects kept
    are the original node labels and edge ids needed to lift results
    back.  Instances are snapshots: mutating the source graph after
    :meth:`from_multigraph` does not affect them, and they expose no
    mutators themselves.
    """

    __slots__ = (
        "nodes",
        "index_of",
        "num_nodes",
        "num_edges",
        "edge_ids",
        "edge_index_of",
        "edge_u",
        "edge_v",
        "indptr",
        "inc_edge",
        "inc_other",
        "degree",
        "_node_reprs",
    )

    def __init__(
        self,
        nodes: List[Node],
        index_of: Dict[Node, int],
        edge_ids: List[EdgeId],
        edge_u: List[int],
        edge_v: List[int],
        indptr: List[int],
        inc_edge: List[int],
        inc_other: List[int],
        degree: List[int],
    ) -> None:
        self.nodes: List[Node] = nodes
        self.index_of: Dict[Node, int] = index_of
        self.num_nodes: int = len(nodes)
        self.num_edges: int = len(edge_ids)
        self.edge_ids: List[EdgeId] = edge_ids
        self.edge_index_of: Dict[EdgeId, int] = dict(
            zip(edge_ids, range(len(edge_ids)))
        )
        self.edge_u: List[int] = edge_u
        self.edge_v: List[int] = edge_v
        self.indptr: List[int] = indptr
        self.inc_edge: List[int] = inc_edge
        self.inc_other: List[int] = inc_other
        self.degree: List[int] = degree
        self._node_reprs: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_multigraph(cls, graph: Multigraph) -> "CompactGraph":
        """Snapshot ``graph`` into CSR arrays, preserving every order.

        The edge arrays are read off the graph's edge table, then one
        scan of them fills every row: a node's incident order is the
        global edge order filtered to that node (a ``Multigraph``
        invariant), so appending each edge to its endpoints' rows in
        scan order reproduces ``incident_edges(v)``.
        """
        nodes = graph.nodes
        index_of = {v: i for i, v in enumerate(nodes)}
        table = graph.edge_table
        edge_ids: List[EdgeId] = list(table)
        edge_u = [index_of[u] for u, _ in table.values()]
        edge_v = [index_of[v] for _, v in table.values()]
        rows: List[List[int]] = [[] for _ in nodes]
        row_others: List[List[int]] = [[] for _ in nodes]
        degree = [0] * len(nodes)
        for e, ui, vi in zip(range(len(edge_ids)), edge_u, edge_v):
            rows[ui].append(e)
            row_others[ui].append(vi)
            degree[ui] += 1
            degree[vi] += 1  # a self-loop counts twice at its node
            if vi != ui:
                rows[vi].append(e)
                row_others[vi].append(ui)
        indptr: List[int] = [0]
        inc_edge: List[int] = []
        inc_other: List[int] = []
        for row, others in zip(rows, row_others):
            inc_edge += row
            inc_other += others
            indptr.append(len(inc_edge))
        return cls(
            nodes=nodes,
            index_of=index_of,
            edge_ids=edge_ids,
            edge_u=edge_u,
            edge_v=edge_v,
            indptr=indptr,
            inc_edge=inc_edge,
            inc_other=inc_other,
            degree=degree,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def other_endpoint(self, e: int, v: int) -> int:
        u, w = self.edge_u[e], self.edge_v[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"node index {v} is not an endpoint of edge index {e}")

    def node_reprs(self) -> List[str]:
        """``repr`` of every node, cached, aligned to node indices."""
        if self._node_reprs is None:
            self._node_reprs = [repr(v) for v in self.nodes]
        return self._node_reprs

    def __repr__(self) -> str:
        return f"CompactGraph(nodes={self.num_nodes}, edges={self.num_edges})"


@dataclass(frozen=True)
class CompactInstance:
    """A migration instance lowered onto the array representation.

    ``capacities[i]`` is the capacity of ``graph.nodes[i]``.  The
    ``source`` reference keeps the object instance reachable for the
    cold paths that stay on the object graph (lower bounds, schedule
    validation, the residual Vizing pass) and for lifting results back
    into edge-id space.
    """

    graph: CompactGraph
    capacities: List[int]
    source: "MigrationInstance"

    def delta_prime(self) -> int:
        """``max_v ceil(degree(v) / c_v)`` — equals the object value."""
        best = 0
        caps = self.capacities
        for i, deg in enumerate(self.graph.degree):
            need = -(-deg // caps[i])
            if need > best:
                best = need
        return best

    def all_even(self) -> bool:
        return all(c % 2 == 0 for c in self.capacities)


def lower_instance(instance: "MigrationInstance") -> CompactInstance:
    """Lower an object instance to the array representation once.

    The pipeline's solve stage calls this per component; every compact
    kernel then works on dense int arrays and lifts only the final
    schedule back through ``graph.edge_ids``.
    """
    graph = CompactGraph.from_multigraph(instance.graph)
    capacities = [instance.capacity(v) for v in graph.nodes]
    return CompactInstance(graph=graph, capacities=capacities, source=instance)


def lift_rounds(graph: CompactGraph, rounds: List[List[int]]) -> List[List[EdgeId]]:
    """Map rounds of edge *indices* back to rounds of edge *ids*."""
    edge_ids = graph.edge_ids
    return [[edge_ids[e] for e in rnd] for rnd in rounds]


def lift_coloring(graph: CompactGraph, color: Dict[int, int]) -> Dict[EdgeId, int]:
    """Map an edge-index-keyed coloring to edge ids, preserving order.

    Dict insertion order is preserved, so downstream bucket fills (for
    example ``MigrationSchedule.from_coloring``) see the coloring in
    assignment order.
    """
    edge_ids = graph.edge_ids
    return {edge_ids[e]: c for e, c in color.items()}
