"""Optimal (``Δ``-color) edge coloring of bipartite multigraphs.

König's edge-coloring theorem: a bipartite multigraph is ``Δ``-edge-
colorable.  The constructive route used here is regularize-then-split:

1. pad both sides to equal size and greedily add dummy edges between
   degree-deficient nodes until the graph is ``Δ``-regular;
2. partition the ``Δ``-regular graph into ``Δ`` perfect matchings by
   Euler partition (:func:`~repro.graphs.matching.quota_split` with
   unit quotas): at even ``Δ`` halve it along alternating closed
   trails into two ``Δ/2``-regular halves; at odd ``Δ`` extract one
   perfect matching (Hall) with max-flow and continue on the
   ``(Δ-1)``-regular remainder — about ``log₂ Δ`` flows in all;
3. give matching ``i`` color ``i`` and report only the colors of real
   edges.

This exact colorer backs the tests of the even-capacity scheduler
(whose Step 4 is, in essence, a capacitated bipartite coloring) and is
part of the baseline suite.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graphs.array_backend import CompactGraph
from repro.graphs.matching import QuotaPeeler, quota_split
from repro.graphs.multigraph import EdgeId, Multigraph, Node


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


def bipartite_coloring(graph: Multigraph) -> Dict[EdgeId, int]:
    """Color a bipartite multigraph with exactly ``Δ`` colors.

    Raises:
        NotBipartiteError: if the graph is not bipartite.
    """
    if graph.num_edges == 0:
        return {}
    left, right = bipartite_sides(graph)
    delta = graph.max_degree()

    # Working edge list: (u, v, real_eid or None).
    edges: List[Tuple[Node, Node, Optional[EdgeId]]] = []
    for eid, u, v in graph.edges():
        if u in left:
            edges.append((u, v, eid))
        else:
            edges.append((v, u, eid))

    # Pad to equal-size sides with fresh dummy nodes.  Sides come back
    # as sets; sort them so the regularization wiring (and hence the
    # split matchings) is identical across processes regardless of
    # hash randomization — schedules must be reproducible byte for
    # byte from a seed alone.
    lefts = sorted(left, key=repr)
    rights = sorted(right, key=repr)
    fresh = count()
    while len(lefts) < len(rights):
        lefts.append(("__pad_left__", next(fresh)))
    while len(rights) < len(lefts):
        rights.append(("__pad_right__", next(fresh)))

    # Regularize: greedily wire deficient pairs with dummy edges.
    deg: Dict[Node, int] = {v: 0 for v in lefts + rights}
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
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
        edges.append((u, w, None))
        deg[u] += 1
        deg[w] += 1

    # Split into Δ perfect matchings.
    parts = quota_split(
        [(u, v) for u, v, _ in edges],
        dict.fromkeys(lefts, 1),
        dict.fromkeys(rights, 1),
        delta,
    )
    coloring: Dict[EdgeId, int] = {}
    for color, part in enumerate(parts):
        for i in part:
            real = edges[i][2]
            if real is not None:
                coloring[real] = color
    return coloring


# ----------------------------------------------------------------------
# Array backend (byte-identical mirrors of the functions above)
# ----------------------------------------------------------------------

def compact_bipartite_sides(graph: CompactGraph) -> List[int]:
    """Array mirror of :func:`bipartite_sides` over a CSR snapshot.

    Returns ``side[v] in {0, 1}`` per node index, with the anchor of
    each component (first unvisited node in index order, which is the
    object engine's node insertion order) on side 0 — the same sides
    the object function computes.  Traversal order differs from the
    object's set-iteration DFS, which is fine: the 2-coloring of a
    component is unique given its anchor's side.  On non-bipartite
    input the raised :class:`NotBipartiteError` may cite a different
    witness edge than the object engine (error paths are not part of
    the byte-identity contract).
    """
    side = [-1] * graph.num_nodes
    indptr, inc_other = graph.indptr, graph.inc_other
    reprs = graph.node_reprs()
    for start in range(graph.num_nodes):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            sx = side[x]
            for h in range(indptr[x], indptr[x + 1]):
                y = inc_other[h]
                if y == x:
                    raise NotBipartiteError(f"self-loop at {reprs[x]}")
                if side[y] < 0:
                    side[y] = 1 - sx
                    stack.append(y)
                elif side[y] == sx:
                    raise NotBipartiteError(
                        f"odd cycle through {reprs[x]}-{reprs[y]}"
                    )
    return side


def compact_konig_coloring(
    num_nodes: int,
    edges: List[Tuple[int, int]],
    node_repr: Sequence[str],
) -> List[int]:
    """Array mirror of :func:`bipartite_coloring` (byte-identical).

    Nodes are dense ints ``0..num_nodes-1`` standing for the object
    graph's nodes; ``node_repr[v]`` must be ``repr`` of the node ``v``
    stands for, because the object function sorts sides by label repr
    and the mirror must reproduce that order exactly (reprs are assumed
    unique, the same precondition the canonical fingerprint imposes).
    ``edges[i]`` is the endpoint pair of the i-th edge in the object
    graph's ``edges()`` enumeration order, so the result — the color of
    edge ``i`` at position ``i`` — aligns with the object coloring dict
    keyed by edge id.

    The ``Δ`` matchings come from
    :meth:`~repro.graphs.matching.QuotaPeeler.split` over side
    positions, which returns the same parts as the object engine's
    :func:`~repro.graphs.matching.quota_split` over labels.
    """
    m = len(edges)
    if m == 0:
        return []

    # Sides, mirroring bipartite_sides over an adjacency built in edge
    # order (anchor-per-component on side 0, component anchors in node
    # index order).
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

    # Working edge list, left-oriented; index < m is the real edge i.
    work: List[Tuple[int, int]] = [
        (u, v) if side[u] == 0 else (v, u) for u, v in edges
    ]

    # Sides sorted by label repr — exactly the object's
    # ``sorted(left, key=repr)`` (stable index tie-break is moot when
    # reprs are unique).  Pad nodes take fresh indices >= num_nodes and
    # are appended *after* the sort, like the object's fresh pad labels.
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

    # Regularize: greedily wire deficient pairs with dummy edges.
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
        work.append((u, w))
        deg[u] += 1
        deg[w] += 1

    # Split into Δ perfect matchings over side positions.
    left_pos = {v: i for i, v in enumerate(lefts)}
    right_pos = {v: i for i, v in enumerate(rights)}
    parts = QuotaPeeler.split(
        [1] * len(lefts),
        [1] * len(rights),
        [left_pos[u] for u, _ in work],
        [right_pos[w] for _, w in work],
        delta,
    )
    color_of = [-1] * m
    for color, part in enumerate(parts):
        for i in part:
            if i < m:
                color_of[i] = color
    return color_of
