"""Euler circuits and Euler orientations of multigraphs.

Section IV of the paper augments the transfer graph so every degree is
even, finds an Euler cycle, and uses the direction in which the cycle
traverses each edge to split every node's incident edges into equal
"in" and "out" halves.  This module provides both pieces:

* :func:`euler_circuits` — one Euler circuit per connected component
  (Hierholzer's algorithm, linear time), requiring all degrees even.
* :func:`euler_orientation` — the induced orientation ``eid -> (tail,
  head)``; each node of degree ``d`` ends up with exactly ``d/2``
  outgoing and ``d/2`` incoming edge-ends (self-loops contribute one
  of each).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.graphs.multigraph import EdgeId, Multigraph, Node


class NotEulerianError(ValueError):
    """Raised when an Euler circuit is requested on an odd-degree graph."""


def euler_circuits(graph: Multigraph) -> List[List[Tuple[EdgeId, Node, Node]]]:
    """Decompose ``graph`` into Euler circuits, one per component.

    Every node must have even degree (self-loops count twice).  Each
    returned circuit is a list of ``(edge_id, from_node, to_node)``
    steps; consecutive steps share a node and the circuit closes on its
    starting node.  Isolated nodes yield no circuit.

    Raises:
        NotEulerianError: if some node has odd degree.
    """
    for v in graph.nodes:
        if graph.degree(v) % 2 != 0:
            raise NotEulerianError(f"node {v!r} has odd degree {graph.degree(v)}")

    # Per-node cursor over incident edges plus a shared "used" set
    # yields iterative Hierholzer in O(|E|) overall.
    incident: Dict[Node, List[EdgeId]] = {v: graph.incident_edges(v) for v in graph.nodes}
    cursor: Dict[Node, int] = {v: 0 for v in graph.nodes}
    used: Set[EdgeId] = set()
    circuits: List[List[Tuple[EdgeId, Node, Node]]] = []

    def next_unused(v: Node) -> EdgeId:
        lst = incident[v]
        i = cursor[v]
        while i < len(lst) and lst[i] in used:
            i += 1
        cursor[v] = i
        return lst[i] if i < len(lst) else -1

    for start in graph.nodes:
        if next_unused(start) == -1:
            continue
        # Walk from `start`, emitting each edge as the walk retreats;
        # reversing at the end gives one contiguous closed circuit that
        # covers the whole component (standard iterative Hierholzer).
        stack: List[Node] = [start]
        path_edges: List[Tuple[EdgeId, Node, Node]] = []
        tour: List[Tuple[EdgeId, Node, Node]] = []
        while stack:
            v = stack[-1]
            eid = next_unused(v)
            if eid == -1:
                stack.pop()
                if path_edges:
                    tour.append(path_edges.pop())
            else:
                used.add(eid)
                w = graph.other_endpoint(eid, v)
                path_edges.append((eid, v, w))
                stack.append(w)
        circuits.append(tour[::-1])
    return circuits


def compact_euler_circuits(
    indptr: Sequence[int],
    inc_edge: Sequence[int],
    inc_other: Sequence[int],
    degree: Sequence[int],
    num_edges: int,
) -> List[List[Tuple[int, int, int]]]:
    """Array-backend Hierholzer over raw CSR rows.

    The arrays describe a multigraph over dense node indices exactly as
    :class:`~repro.graphs.array_backend.CompactGraph` lays them out
    (row ``indptr[v]:indptr[v+1]`` lists incident edge indices in the
    object engine's ``incident_edges(v)`` order; self-loops appear once
    per row but count 2 in ``degree``).  Taking raw rows rather than a
    ``CompactGraph`` lets the even-capacity solver walk its *augmented*
    graph (original edges plus evenizing self-loops and pairing edges)
    without materializing object edges for the augmentation.

    Step-for-step mirror of :func:`euler_circuits`: same per-node
    cursor advancement, same start-node order (node index order ==
    object insertion order), same emit-on-retreat walk — so circuit
    ``k`` of this function traverses exactly the edges, directions and
    order of circuit ``k`` of the object function.

    Raises:
        NotEulerianError: if some node has odd degree.
    """
    n = len(degree)
    for v in range(n):
        if degree[v] % 2 != 0:
            raise NotEulerianError(f"node index {v} has odd degree {degree[v]}")

    cursor = [0] * n
    used = bytearray(num_edges)
    circuits: List[List[Tuple[int, int, int]]] = []

    for start in range(n):
        # Inline next_unused(start): skip already-used row entries.
        i = cursor[start]
        row_end = indptr[start + 1]
        base = indptr[start]
        while base + i < row_end and used[inc_edge[base + i]]:
            i += 1
        cursor[start] = i
        if base + i >= row_end:
            continue
        stack: List[int] = [start]
        path_edges: List[Tuple[int, int, int]] = []
        tour: List[Tuple[int, int, int]] = []
        while stack:
            v = stack[-1]
            base = indptr[v]
            row_end = indptr[v + 1]
            i = cursor[v]
            while base + i < row_end and used[inc_edge[base + i]]:
                i += 1
            cursor[v] = i
            if base + i >= row_end:
                stack.pop()
                if path_edges:
                    tour.append(path_edges.pop())
            else:
                e = inc_edge[base + i]
                used[e] = 1
                w = inc_other[base + i]
                path_edges.append((e, v, w))
                stack.append(w)
        circuits.append(tour[::-1])
    return circuits


def compact_euler_orientation(
    indptr: Sequence[int],
    inc_edge: Sequence[int],
    inc_other: Sequence[int],
    degree: Sequence[int],
    num_edges: int,
) -> Tuple[List[int], List[int], List[int]]:
    """Array-backend :func:`euler_orientation`.

    Returns ``(order, tail, head)``: ``order`` lists edge indices in
    the same sequence the object orientation dict would insert them
    (circuit discovery order), and ``tail[e]``/``head[e]`` give the
    traversal direction of edge ``e`` (``-1`` for edges not reached,
    which cannot happen on an Eulerian input).
    """
    order: List[int] = []
    tail = [-1] * num_edges
    head = [-1] * num_edges
    for circuit in compact_euler_circuits(indptr, inc_edge, inc_other, degree, num_edges):
        for e, u, v in circuit:
            order.append(e)
            tail[e] = u
            head[e] = v
    return order, tail, head


def euler_orientation(graph: Multigraph) -> Dict[EdgeId, Tuple[Node, Node]]:
    """Orient every edge along an Euler circuit of its component.

    Returns ``{edge_id: (tail, head)}``.  Because each circuit enters
    and leaves every node the same number of times, each node ``v``
    receives exactly ``degree(v)/2`` tails and ``degree(v)/2`` heads
    (a self-loop contributes one of each).

    Raises:
        NotEulerianError: if some node has odd degree.
    """
    orientation: Dict[EdgeId, Tuple[Node, Node]] = {}
    for circuit in euler_circuits(graph):
        for eid, u, v in circuit:
            orientation[eid] = (u, v)
    return orientation
