"""Misra–Gries edge coloring: ``Δ + 1`` colors on simple graphs.

Phase 2 of the paper's general algorithm (Section V-C3) colors the
residual simple graph ``G₀`` with "Vizing's algorithm"; Misra & Gries
(1992) is the standard constructive form: fans, color rotations and
cd-path inversions yield a proper coloring with at most ``Δ + 1``
colors in ``O(|V|·|E|)`` time.

The implementation operates on :class:`~repro.graphs.multigraph.Multigraph`
inputs but requires them to be simple (no parallel edges, no
self-loops) — exactly what Phase 1 guarantees for ``G₀``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.graphs.multigraph import EdgeId, Multigraph, Node


class NotSimpleGraphError(ValueError):
    """Raised when the input multigraph has parallel edges or loops."""


def vizing_coloring(graph: Multigraph) -> Dict[EdgeId, int]:
    """Properly color a simple graph with at most ``Δ + 1`` colors.

    Raises:
        NotSimpleGraphError: if the graph is not simple.
    """
    _check_simple(graph)
    delta = graph.max_degree()
    if graph.num_edges == 0:
        return {}
    q = delta + 1
    coloring: Dict[EdgeId, int] = {}
    # at[v][c] -> edge id of color c at v (proper coloring invariant).
    at: Dict[Node, Dict[int, EdgeId]] = {v: {} for v in graph.nodes}

    def free_color(v: Node) -> int:
        for c in range(q):
            if c not in at[v]:
                return c
        raise AssertionError(f"no free color at {v!r} with q={q}")

    def is_free(v: Node, c: int) -> bool:
        return c not in at[v]

    def set_color(eid: EdgeId, c: Optional[int]) -> None:
        u, v = graph.endpoints(eid)
        old = coloring.pop(eid, None)
        if old is not None:
            del at[u][old]
            del at[v][old]
        if c is not None:
            coloring[eid] = c
            at[u][c] = eid
            at[v][c] = eid

    def edge_between(u: Node, x: Node) -> EdgeId:
        # Simple graph: unique edge.
        return graph.edges_between(u, x)[0]

    def maximal_fan(u: Node, v: Node) -> List[Node]:
        """Maximal fan of ``u`` starting at ``v`` (distinct neighbors)."""
        fan = [v]
        in_fan = {v}
        grown = True
        while grown:
            grown = False
            last = fan[-1]
            for x in sorted(graph.neighbors(u), key=repr):
                if x in in_fan:
                    continue
                eid = edge_between(u, x)
                c = coloring.get(eid)
                if c is not None and is_free(last, c):
                    fan.append(x)
                    in_fan.add(x)
                    grown = True
                    break
        return fan

    def invert_cd_path(u: Node, c: int, d: int) -> None:
        """Invert the maximal path of colors ``d, c, d, …`` from ``u``.

        ``c`` is free at ``u`` so ``u`` is an endpoint of its cd
        component, which is therefore a path; swapping ``c`` and ``d``
        along it keeps the coloring proper.
        """
        path: List[EdgeId] = []
        cur = u
        want = d
        prev: Optional[EdgeId] = None
        while True:
            eid = at[cur].get(want)
            if eid is None or eid == prev:
                break
            path.append(eid)
            cur = graph.other_endpoint(eid, cur)
            prev = eid
            want = c if want == d else d
        # Two passes: uncolor the whole path first, then recolor with
        # the swapped colors.  A single interleaved pass would corrupt
        # the per-node color index at interior path nodes (which carry
        # one edge of each color).
        swapped = {eid: (c if coloring[eid] == d else d) for eid in path}
        for eid in path:
            set_color(eid, None)
        for eid, new in swapped.items():
            set_color(eid, new)

    def rotate_fan(u: Node, fan_prefix: List[Node]) -> None:
        """Shift colors down the fan, leaving the last edge uncolored.

        Colors are captured first and the whole prefix uncolored before
        reassignment: shifting in place would overwrite index entries
        at ``u`` that later steps still need to delete.
        """
        fan_edges = [edge_between(u, x) for x in fan_prefix]
        shifted = {
            fan_edges[i]: coloring[fan_edges[i + 1]]
            for i in range(len(fan_edges) - 1)
        }
        for eid in fan_edges:
            if eid in coloring:
                set_color(eid, None)
        for eid, new in shifted.items():
            set_color(eid, new)

    def fan_prefix_valid(u: Node, fan: List[Node], j: int) -> bool:
        """Is ``fan[0..j]`` still a fan under the current coloring?"""
        for i in range(1, j + 1):
            c = coloring.get(edge_between(u, fan[i]))
            if c is None or not is_free(fan[i - 1], c):
                return False
        return True

    for eid0 in graph.edge_ids():
        u, v = graph.endpoints(eid0)
        fan = maximal_fan(u, v)
        c = free_color(u)
        d = free_color(fan[-1])
        invert_cd_path(u, c, d)
        # After inversion, some prefix fan[0..w] is a fan with d free
        # at its tip (Misra–Gries invariant guarantees existence).
        w: Optional[int] = None
        for j in range(len(fan) - 1, -1, -1):
            if is_free(fan[j], d) and fan_prefix_valid(u, fan, j):
                w = j
                break
        if w is None:
            raise AssertionError("Misra-Gries invariant violated: no rotatable prefix")
        prefix = fan[: w + 1]
        rotate_fan(u, prefix)
        set_color(edge_between(u, prefix[-1]), d)
    return coloring


def _check_simple(graph: Multigraph) -> None:
    seen: set = set()
    for eid, u, v in graph.edges():
        if u == v:
            raise NotSimpleGraphError(f"self-loop {eid} at {u!r}")
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key in seen:
            raise NotSimpleGraphError(f"parallel edges between {u!r} and {v!r}")
        seen.add(key)
