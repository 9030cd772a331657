"""Euler circuits and Euler orientations of multigraphs, over CSR rows.

Section IV of the paper augments the transfer graph so every degree is
even, finds an Euler cycle, and uses the direction in which the cycle
traverses each edge to split every node's incident edges into equal
"in" and "out" halves.  This module provides both pieces, over the raw
rows of a :class:`~repro.graphs.array_backend.CompactGraph` (dense int
nodes and edges):

* :func:`compact_euler_orientation` — one Euler circuit per connected
  component (Hierholzer's algorithm, linear time), requiring all
  degrees even, read as an orientation: each node of degree ``d`` ends
  up with exactly ``d/2`` outgoing and ``d/2`` incoming edge-ends
  (self-loops contribute one of each).
* :func:`compact_euler_circuits` — the same walk cut into its circuits
  of ``(edge, from_node, to_node)`` steps.

Both are views of one walk, which writes the orientation as it goes.

An object graph is walked through its snapshot,
``CompactGraph.from_multigraph(graph)``, whose ``edge_ids`` and
``nodes`` map the results back to labels.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class NotEulerianError(ValueError):
    """Raised when an Euler circuit is requested on an odd-degree graph."""


def _hierholzer(
    indptr: Sequence[int],
    inc_edge: Sequence[int],
    inc_other: Sequence[int],
    degree: Sequence[int],
    num_edges: int,
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """The one Euler walk: ``(order, tail, head, starts)``.

    Start nodes are taken in index order.  From each, the walk follows
    the current node's first unused row entry until it is stuck, then
    retreats one edge (to that edge's tail) and tries again; edges are
    kept as the walk retreats, so each circuit is its retreat order
    reversed (iterative Hierholzer).  An edge's direction is the one
    the walk first took it in, written into ``tail``/``head`` then.
    ``order`` is every circuit in turn and ``starts[c]`` the position
    in ``order`` where circuit ``c`` begins.  Each row is consumed
    through an absolute cursor, so the result is a pure function of
    the rows.
    """
    for v, d in enumerate(degree):
        if d % 2:
            raise NotEulerianError(f"node index {v} has odd degree {d}")
    n = len(degree)
    cursor = list(indptr[:n])
    ends = indptr[1:]
    used = bytearray(num_edges)
    tail = [-1] * num_edges
    head = [-1] * num_edges
    order: List[int] = []
    starts: List[int] = []
    for start in range(n):
        i = cursor[start]
        end = ends[start]
        while i < end and used[inc_edge[i]]:
            i += 1
        cursor[start] = i
        if i == end:
            continue  # a used-up row starts no circuit
        starts.append(len(order))
        path: List[int] = []
        tour: List[int] = []
        v = start
        while True:
            i = cursor[v]
            end = ends[v]
            while True:  # forward until stuck
                while i < end and used[inc_edge[i]]:
                    i += 1
                if i == end:
                    break
                e = inc_edge[i]
                cursor[v] = i + 1
                used[e] = 1
                tail[e] = v
                v = head[e] = inc_other[i]
                path.append(e)
                i = cursor[v]
                end = ends[v]
            cursor[v] = i
            if not path:
                break
            e = path.pop()
            tour.append(e)
            v = tail[e]
        tour.reverse()
        order += tour
    return order, tail, head, starts


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
    starting node.  It is a view of the walk
    :func:`compact_euler_orientation` returns: the same ``order`` cut
    at each circuit's start, each edge with its ``tail`` and ``head``.
    Isolated nodes yield no circuit.

    Raises:
        NotEulerianError: if some node has odd degree.
    """
    order, tail, head, starts = _hierholzer(
        indptr, inc_edge, inc_other, degree, num_edges
    )
    bounds = zip(starts, starts[1:] + [len(order)])
    return [
        [(e, tail[e], head[e]) for e in order[lo:hi]] for lo, hi in bounds
    ]


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
    order, tail, head, _starts = _hierholzer(
        indptr, inc_edge, inc_other, degree, num_edges
    )
    return order, tail, head
