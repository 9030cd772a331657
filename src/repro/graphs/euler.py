"""Euler circuits and Euler orientations of multigraphs, over CSR rows.

Section IV of the paper augments the transfer graph so every degree is
even, finds an Euler cycle, and uses the direction in which the cycle
traverses each edge to split every node's incident edges into equal
"in" and "out" halves.  This module provides both pieces, over the raw
rows of a :class:`~repro.graphs.array_backend.CompactGraph` (dense int
nodes and edges):

* :func:`compact_euler_circuits` — one Euler circuit per connected
  component (Hierholzer's algorithm, linear time), requiring all
  degrees even.
* :func:`compact_euler_orientation` — the induced orientation: each
  node of degree ``d`` ends up with exactly ``d/2`` outgoing and
  ``d/2`` incoming edge-ends (self-loops contribute one of each).

An object graph is walked through its snapshot,
``CompactGraph.from_multigraph(graph)``, whose ``edge_ids`` and
``nodes`` map the results back to labels.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class NotEulerianError(ValueError):
    """Raised when an Euler circuit is requested on an odd-degree graph."""


def compact_euler_circuits(
    indptr: Sequence[int],
    inc_edge: Sequence[int],
    inc_other: Sequence[int],
    degree: Sequence[int],
    num_edges: int,
) -> List[List[Tuple[int, int, int]]]:
    """Decompose a multigraph into Euler circuits, one per component.

    The arrays describe a multigraph over dense node indices exactly as
    :class:`~repro.graphs.array_backend.CompactGraph` lays them out
    (row ``indptr[v]:indptr[v+1]`` lists incident edge indices in the
    object graph's ``incident_edges(v)`` order; self-loops appear once
    per row but count 2 in ``degree``).  Taking raw rows rather than a
    ``CompactGraph`` lets the even-capacity solver walk its *augmented*
    graph (original edges plus evenizing self-loops and pairing edges)
    without materializing object edges for the augmentation.

    Each returned circuit is a list of ``(edge, from_node, to_node)``
    steps; consecutive steps share a node and the circuit closes on its
    starting node.  Start nodes are taken in index order, each node's
    row is consumed through a cursor, and edges are emitted as the walk
    retreats (iterative Hierholzer), so the output is a pure function
    of the rows.  Isolated nodes yield no circuit.

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
        # Skip the used entries of start's row; a used-up row starts no circuit.
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
    """Orient every edge along an Euler circuit of its component.

    Returns ``(order, tail, head)``: ``order`` lists edge indices in
    circuit discovery order, and ``tail[e]``/``head[e]`` give the
    traversal direction of edge ``e`` (``-1`` for edges not reached,
    which cannot happen on an Eulerian input).  Because each circuit
    enters and leaves every node the same number of times, each node
    ``v`` is the tail of exactly ``degree[v]/2`` edge-ends and the head
    of as many.

    Raises:
        NotEulerianError: if some node has odd degree.
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
