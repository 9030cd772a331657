"""Optimal (``Δ``-color) edge coloring of bipartite multigraphs.

König's edge-coloring theorem: a bipartite multigraph is ``Δ``-edge-
colorable.  The constructive route used here is regularize-then-split:

1. pad both sides to equal size and greedily wire degree-deficient
   pairs with dummy edges until the graph is ``Δ``-regular; each
   wired pair takes the smaller of its two deficiencies at once and
   stays one padding count, never a run of edges;
2. partition the ``Δ``-regular graph into ``Δ`` perfect matchings by
   Euler partition (:meth:`~repro.graphs.matching.QuotaPeeler.split`
   with unit quotas and the counts as its padding): at even ``Δ``
   halve it along alternating closed trails into two ``Δ/2``-regular
   halves; at odd ``Δ`` extract one perfect matching (Hall) with
   max-flow and continue on the ``(Δ-1)``-regular remainder — about
   ``log₂ Δ`` flows in all;
3. give matching ``i`` color ``i``; the dummies appear in no matching
   ``split`` returns, so every returned edge is real.

:func:`compact_konig_coloring` runs these steps over dense int nodes;
it is the colorer of the bipartite scheduler
(:func:`repro.core.special_cases.bipartite_optimal_schedule_compact`).
:func:`bipartite_sides` 2-colors an object graph or rejects it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.graphs.matching import QuotaPeeler
from repro.graphs.multigraph import Multigraph, Node


class NotBipartiteError(ValueError):
    """Raised when the input multigraph is not bipartite."""


def bipartite_sides(graph: Multigraph) -> Tuple[Set[Node], Set[Node]]:
    """2-color the nodes; raise :class:`NotBipartiteError` otherwise."""
    side: Dict[Node, int] = {}
    for start in graph.nodes:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            if graph.edges_between(x, x):
                raise NotBipartiteError(f"self-loop at {x!r}")
            # The 2-coloring of a component is unique given its anchor's
            # side, so visit order cannot change the resulting sides.
            for y in graph.neighbors(x):  # repro: allow-set-iter
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    raise NotBipartiteError(f"odd cycle through {x!r}-{y!r}")
    left = {v for v, s in side.items() if s == 0}
    right = {v for v, s in side.items() if s == 1}
    return left, right


def compact_konig_coloring(
    num_nodes: int,
    edges: List[Tuple[int, int]],
    node_repr: Sequence[str],
) -> List[int]:
    """Color a bipartite multigraph with exactly ``Δ`` colors.

    Nodes are dense ints ``0..num_nodes-1``, and ``edges[i]`` is the
    endpoint pair of edge ``i``; the result holds the color of edge
    ``i`` at position ``i``.  ``node_repr[v]`` names node ``v``: each
    side is sorted by name before padding, so the regularization wiring
    and hence the matchings depend on the names alone, not on how the
    caller numbered the nodes (names are assumed unique, the same
    precondition the canonical fingerprint imposes).  The ``Δ``
    matchings come from :meth:`~repro.graphs.matching.QuotaPeeler.split`
    over side positions.

    Raises:
        NotBipartiteError: if the graph is not bipartite.
    """
    m = len(edges)
    if m == 0:
        return []

    # Sides, as bipartite_sides computes them, over an adjacency built
    # in edge order (anchor-per-component on side 0, component anchors
    # in node index order).
    adj: List[List[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * num_nodes
    for start in range(num_nodes):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            sx = side[x]
            for y in adj[x]:
                if y == x:
                    raise NotBipartiteError(f"self-loop at {node_repr[x]}")
                if side[y] < 0:
                    side[y] = 1 - sx
                    stack.append(y)
                elif side[y] == sx:
                    raise NotBipartiteError(
                        f"odd cycle through {node_repr[x]}-{node_repr[y]}"
                    )

    deg = [0] * num_nodes
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    delta = max(deg)

    # The real edges, left-oriented.
    work: List[Tuple[int, int]] = [
        (u, v) if side[u] == 0 else (v, u) for u, v in edges
    ]

    # Sides sorted by name (the stable index tie-break is moot when
    # names are unique).  Pad nodes take fresh indices >= num_nodes and
    # are appended *after* the sort.
    lefts = sorted((v for v in range(num_nodes) if side[v] == 0),
                   key=node_repr.__getitem__)
    rights = sorted((v for v in range(num_nodes) if side[v] == 1),
                    key=node_repr.__getitem__)
    while len(lefts) < len(rights):
        lefts.append(len(deg))
        deg.append(0)
    while len(rights) < len(lefts):
        rights.append(len(deg))
        deg.append(0)
    left_pos = {v: i for i, v in enumerate(lefts)}
    right_pos = {v: i for i, v in enumerate(rights)}

    # Regularize: greedily wire deficient pairs, each with the smaller
    # of its two deficiencies, as padding counts over side positions.
    pads: Dict[Tuple[int, int], int] = {}
    deficient_left = [v for v in lefts if deg[v] < delta]
    deficient_right = [v for v in rights if deg[v] < delta]
    li, ri = 0, 0
    while li < len(deficient_left):
        u = deficient_left[li]
        if deg[u] == delta:
            li += 1
            continue
        w = deficient_right[ri]
        if deg[w] == delta:
            ri += 1
            continue
        k = delta - max(deg[u], deg[w])
        pads[left_pos[u], right_pos[w]] = k
        deg[u] += k
        deg[w] += k

    # Split into Δ perfect matchings over side positions.
    parts = QuotaPeeler.split(
        [1] * len(lefts),
        [1] * len(rights),
        [left_pos[u] for u, _ in work],
        [right_pos[w] for _, w in work],
        delta,
        pads,
    )
    color_of = [-1] * m
    for color, part in enumerate(parts):
        for i in part:
            color_of[i] = color
    return color_of
