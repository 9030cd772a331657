"""Integral maximum flow (Dinic's algorithm, plus Edmonds–Karp).

Lemma 4.1 of the paper proves that the ``c_v/2``-matching needed by the
even-capacity scheduler exists by exhibiting a *fractional* flow and
invoking the integrality theorem: an integral flow of the same value
can be found with any augmenting-path algorithm.  This module supplies
that machinery.  Dinic's algorithm is the workhorse (it is
``O(E · sqrt(V))`` on the unit-capacity bipartite networks we build);
Edmonds–Karp is kept as an independent implementation used by the test
suite to cross-check flow values.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

Node = Hashable


class FlowNetwork:
    """A directed flow network with integer capacities.

    Edges are stored in a flat adjacency structure with explicit
    residual twins (the classic Dinic layout).  ``add_edge`` returns an
    index with which the final flow on that edge can be queried after
    :meth:`max_flow` runs.
    """

    def __init__(self) -> None:
        self._index: Dict[Node, int] = {}
        self._names: List[Node] = []
        # Parallel arrays: for edge i, twin is i ^ 1.
        self._to: List[int] = []
        self._cap: List[int] = []
        self._adj: List[List[int]] = []

    def _node(self, v: Node) -> int:
        if v not in self._index:
            self._index[v] = len(self._names)
            self._names.append(v)
            self._adj.append([])
        return self._index[v]

    def add_node(self, v: Node) -> None:
        """Ensure node ``v`` exists."""
        self._node(v)

    def add_edge(self, u: Node, v: Node, capacity: int) -> int:
        """Add a directed edge ``u -> v``; return its handle.

        Raises:
            ValueError: if ``capacity`` is negative.
        """
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity} on edge {u!r}->{v!r}")
        ui, vi = self._node(u), self._node(v)
        handle = len(self._to)
        self._to.append(vi)
        self._cap.append(capacity)
        self._adj[ui].append(handle)
        self._to.append(ui)
        self._cap.append(0)
        self._adj[vi].append(handle + 1)
        return handle

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    def flow_on(self, handle: int) -> int:
        """Flow routed through the edge returned by :meth:`add_edge`."""
        # Flow equals the residual capacity accumulated on the twin.
        return self._cap[handle ^ 1]

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------
    def max_flow(self, source: Node, sink: Node) -> int:
        """Run Dinic's algorithm; return the maximum flow value.

        Subsequent :meth:`flow_on` calls report the per-edge flows of
        the computed maximum flow (which is integral because all
        capacities are integers).
        """
        s, t = self._node(source), self._node(sink)
        if s == t:
            raise ValueError("source and sink must differ")
        total = 0
        n = self.num_nodes
        while True:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                return total
            it = [0] * n
            infinity = sum(self._cap) + 1
            while True:
                pushed = self._dfs_push(s, t, infinity, level, it)
                if not pushed:
                    break
                total += pushed

    def _bfs_levels(self, s: int, t: int) -> List[int]:
        level = [-1] * self.num_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for h in self._adj[v]:
                if self._cap[h] > 0 and level[self._to[h]] < 0:
                    level[self._to[h]] = level[v] + 1
                    queue.append(self._to[h])
        return level

    def _dfs_push(self, v: int, t: int, limit: int, level: List[int], it: List[int]) -> int:
        if v == t:
            return limit
        while it[v] < len(self._adj[v]):
            h = self._adj[v][it[v]]
            w = self._to[h]
            if self._cap[h] > 0 and level[w] == level[v] + 1:
                pushed = self._dfs_push(w, t, min(limit, self._cap[h]), level, it)
                if pushed:
                    self._cap[h] -= pushed
                    self._cap[h ^ 1] += pushed
                    return pushed
            it[v] += 1
        level[v] = -1
        return 0


def max_flow(
    edges: List[Tuple[Node, Node, int]], source: Node, sink: Node
) -> Tuple[int, Dict[int, int]]:
    """Convenience wrapper: build a network, run Dinic, return flows.

    Args:
        edges: list of ``(u, v, capacity)``.
        source / sink: endpoints.

    Returns:
        ``(value, flows)`` where ``flows[i]`` is the flow on the i-th
        input edge.
    """
    net = FlowNetwork()
    handles = [net.add_edge(u, v, c) for u, v, c in edges]
    net.add_node(source)
    net.add_node(sink)
    value = net.max_flow(source, sink)
    return value, {i: net.flow_on(h) for i, h in enumerate(handles)}


def edmonds_karp(
    edges: List[Tuple[Node, Node, int]], source: Node, sink: Node
) -> int:
    """Independent Edmonds–Karp implementation (value only).

    Used by the test suite to cross-validate :class:`FlowNetwork`; it
    shares no code with Dinic above.
    """
    # Build residual adjacency as nested dicts.
    residual: Dict[Node, Dict[Node, int]] = {}

    def ensure(v: Node) -> None:
        residual.setdefault(v, {})

    for u, v, c in edges:
        ensure(u)
        ensure(v)
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    ensure(source)
    ensure(sink)

    value = 0
    while True:
        # BFS for a shortest augmenting path.
        parent: Dict[Node, Optional[Node]] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y, cap in residual[x].items():
                if cap > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            return value
        # Bottleneck along the path.
        bottleneck: Optional[int] = None
        y = sink
        while (x := parent[y]) is not None:
            cap = residual[x][y]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            y = x
        assert bottleneck is not None  # sink reachable, so the path has an edge
        y = sink
        while (x := parent[y]) is not None:
            residual[x][y] -= bottleneck
            residual[y][x] += bottleneck
            y = x
        value += bottleneck
