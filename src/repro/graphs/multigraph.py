"""An undirected multigraph with stable edge identities.

The transfer graphs of the paper are multigraphs: several data items may
move between the same pair of disks, so parallel edges are first-class
citizens, and the even-capacity algorithm of Section IV temporarily adds
self-loops.  The coloring and orbit algorithms need O(1) access to
per-edge identities, degrees and parallel-edge groups, so this small
dedicated structure carries them.

Edges are identified by integer ids that are stable across removals;
every algorithm in this package talks about edges by id, never by
``(u, v)`` pair (which would be ambiguous in a multigraph).

Edge-id stability contract (relied on by the array backend and the
plan cache):

* ``add_edge`` assigns strictly increasing ids from a high-water mark
  (``next_edge_id``) that **never decreases** — removing an edge does
  not recycle its id, so any ``remove_edge``/re-add interleaving keeps
  old ids valid and new ids fresh.
* Enumeration order: ``edges()`` / ``edge_ids()`` yield edges in
  insertion order.  For graphs built through ``add_edge`` alone this
  is ascending-id order; ``edge_subgraph`` inserts in the caller-given
  order, so consumers that need ascending ids must sort.
* Adjacency-order invariant: for every node ``v``,
  ``incident_edges(v)`` equals the global ``edges()`` order filtered
  to the edges incident to ``v``.  This holds under any sequence of
  ``add_edge``/``remove_edge`` (both dicts delete and append
  together) and is preserved by ``copy``/``edge_subgraph``/
  ``component_graphs``.  The CSR snapshot
  (``CompactGraph.from_multigraph``) fills every node's row in one
  scan of ``edges()`` because of it, so its rows list each node's
  edges in ``incident_edges(v)`` order.
* Self-loop accounting: a self-loop appears **once** in
  ``incident_edges(v)`` (one adjacency slot) but contributes **2** to
  ``degree(v)``; ``sum(degree) == 2 * num_edges`` always.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

Node = Hashable
EdgeId = int


class Multigraph:
    """Undirected multigraph with parallel edges and self-loops.

    Degrees follow the usual convention: a self-loop contributes 2 to
    the degree of its endpoint.
    """

    def __init__(
        self, nodes: Iterable[Node] = (), edges: Iterable[Tuple[Node, Node]] = ()
    ) -> None:
        self._adj: Dict[Node, Dict[EdgeId, Node]] = {}
        self._edges: Dict[EdgeId, Tuple[Node, Node]] = {}
        self._degree: Dict[Node, int] = {}
        self._next_id: EdgeId = 0
        for n in nodes:
            self.add_node(n)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Add an isolated node (no-op if present)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._degree[v] = 0

    def add_edge(self, u: Node, v: Node) -> EdgeId:
        """Add an undirected edge between ``u`` and ``v``; return its id.

        ``u == v`` creates a self-loop, which counts 2 toward the degree
        of the node.
        """
        self.add_node(u)
        self.add_node(v)
        eid = self._next_id
        self._next_id += 1
        self._edges[eid] = (u, v)
        self._adj[u][eid] = v
        if u != v:
            self._adj[v][eid] = u
            self._degree[u] += 1
            self._degree[v] += 1
        else:
            self._degree[u] += 2
        return eid

    def remove_edge(self, eid: EdgeId) -> Tuple[Node, Node]:
        """Remove edge ``eid``; return its endpoints.

        The id is retired, never reused: a later ``add_edge`` still
        allocates from the high-water mark, so removal/re-add
        interleavings can never alias two distinct edges.
        """
        u, v = self._edges.pop(eid)
        del self._adj[u][eid]
        if u != v:
            del self._adj[v][eid]
            self._degree[u] -= 1
            self._degree[v] -= 1
        else:
            self._degree[u] -= 2
        return (u, v)

    def remove_node(self, v: Node) -> None:
        """Remove node ``v`` and every edge incident to it."""
        for eid in list(self._adj[v]):
            self.remove_edge(eid)
        del self._adj[v]
        del self._degree[v]

    def copy(self) -> "Multigraph":
        """Deep structural copy preserving node names and edge ids."""
        g = Multigraph()
        g._adj = {v: dict(inc) for v, inc in self._adj.items()}
        g._edges = dict(self._edges)
        g._degree = dict(self._degree)
        g._next_id = self._next_id
        return g

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return list(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def next_edge_id(self) -> EdgeId:
        """The id the next ``add_edge`` will assign (never decreases)."""
        return self._next_id

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def has_node(self, v: Node) -> bool:
        return v in self._adj

    def has_edge_id(self, eid: EdgeId) -> bool:
        return eid in self._edges

    def edge_ids(self) -> List[EdgeId]:
        return list(self._edges)

    def edges(self) -> Iterator[Tuple[EdgeId, Node, Node]]:
        """Iterate over ``(edge_id, u, v)`` triples."""
        for eid, (u, v) in self._edges.items():
            yield eid, u, v

    @property
    def edge_table(self) -> Mapping[EdgeId, Tuple[Node, Node]]:
        """Read-only live view ``edge id -> (u, v)`` in ``edges()`` order.

        A per-edge pass that iterates ``edge_table.items()`` or
        ``.values()`` reads the table's own tuples, with no generator
        step or fresh triple per edge.
        """
        return MappingProxyType(self._edges)

    def endpoints(self, eid: EdgeId) -> Tuple[Node, Node]:
        return self._edges[eid]

    def other_endpoint(self, eid: EdgeId, v: Node) -> Node:
        u, w = self._edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"node {v!r} is not an endpoint of edge {eid}")

    def is_self_loop(self, eid: EdgeId) -> bool:
        u, v = self._edges[eid]
        return u == v

    def degree(self, v: Node) -> int:
        """Degree of ``v`` (self-loops count twice)."""
        return self._degree[v]

    def max_degree(self) -> int:
        return max(self._degree.values(), default=0)

    def incident_edges(self, v: Node) -> List[EdgeId]:
        """Ids of all edges incident to ``v`` (self-loops appear once)."""
        return list(self._adj[v])

    def neighbors(self, v: Node) -> Set[Node]:
        return set(self._adj[v].values())

    def edges_between(self, u: Node, v: Node) -> List[EdgeId]:
        """All parallel edge ids between ``u`` and ``v``."""
        if u not in self._adj or v not in self._adj:
            return []
        if self.degree(u) > self.degree(v):
            u, v = v, u
        return [eid for eid, other in self._adj[u].items() if other == v]

    def multiplicity(self, u: Node, v: Node) -> int:
        """Number of parallel edges between ``u`` and ``v``."""
        return len(self.edges_between(u, v))

    def max_multiplicity(self) -> int:
        """Largest number of parallel edges between any node pair."""
        counts: Dict[Tuple[Node, Node], int] = {}
        for _eid, u, v in self.edges():
            key = (u, v) if repr(u) <= repr(v) else (v, u)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[Node]]:
        """Components of the underlying graph (isolated nodes included)."""
        seen: Set[Node] = set()
        components: List[Set[Node]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                for other in self._adj[x].values():
                    if other not in seen:
                        seen.add(other)
                        comp.add(other)
                        stack.append(other)
            components.append(comp)
        return components

    def component_graphs(self, groups: Sequence[Sequence[Node]]) -> List["Multigraph"]:
        """One graph per node group, copied from this graph's tables.

        Every edge must lie inside one group (the groups are unions of
        connected components that together hold every edge), so each
        node's adjacency is copied whole.  Group ``k``'s graph has the
        nodes of ``groups[k]`` in that order, their adjacency orders
        and degrees, this graph's edges among them in this graph's
        order under their ids, and this graph's id high-water mark.
        The edge table is read once, or copied whole for one group.
        """
        graphs: List[Multigraph] = []
        for nodes in groups:
            g = Multigraph()
            g._adj = {v: dict(self._adj[v]) for v in nodes}
            g._degree = {v: self._degree[v] for v in nodes}
            g._next_id = self._next_id
            graphs.append(g)
        if len(graphs) == 1:
            graphs[0]._edges = dict(self._edges)
        else:
            table_of = {v: g._edges for g in graphs for v in g._adj}
            for eid, uv in self._edges.items():
                table_of[uv[0]][eid] = uv
        return graphs

    def edge_subgraph(self, eids: Iterable[EdgeId]) -> "Multigraph":
        """Subgraph containing exactly the given edges (ids preserved)."""
        g = Multigraph()
        g._next_id = self._next_id
        for eid in eids:
            u, v = self._edges[eid]
            g.add_node(u)
            g.add_node(v)
            g._edges[eid] = (u, v)
            g._adj[u][eid] = v
            if u != v:
                g._adj[v][eid] = u
                g._degree[u] += 1
                g._degree[v] += 1
            else:
                g._degree[u] += 2
        return g

    def __contains__(self, v: Node) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Multigraph(nodes={self.num_nodes}, edges={self.num_edges})"
