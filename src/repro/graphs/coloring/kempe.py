"""Kempe-chain proper edge coloring of multigraphs.

Within two fixed colors ``a``/``b``, a properly colored multigraph
decomposes into paths and cycles (each node carries at most one edge of
each color), exactly as in simple graphs, so Kempe-chain flips remain
sound.  :func:`kempe_coloring` runs iterative deepening on the palette
size ``q``: starting from the trivial lower bound ``Δ`` it tries to
complete a coloring with ``q`` colors using chain flips to resolve
conflicts, and widens the palette only when stuck.

Termination is unconditional: once ``q = 2Δ - 1`` every edge sees a
common free color at its endpoints, so first-fit alone succeeds.  In
practice the flips land at ``Δ`` or ``Δ + 1`` colors on the graphs in
this repository; the benchmark harness records the achieved palette
against Shannon's ``⌊3Δ/2⌋`` bound.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.graphs.multigraph import EdgeId, Multigraph, Node

# How many (a, b) color pairs to try per stuck edge before declaring
# the current palette size a failure.  Chains are cheap to walk, so a
# moderately aggressive budget pays for itself by avoiding q bumps.
_PAIR_BUDGET = 24

# Random restarts per palette size before widening it.
_RESTARTS = 2


def kempe_coloring(
    graph: Multigraph,
    max_colors: Optional[int] = None,
    seed: int = 0,
) -> Dict[EdgeId, int]:
    """Proper edge coloring via first-fit plus Kempe-chain repair.

    Args:
        graph: multigraph without self-loops.
        max_colors: optional hard palette cap; ``ValueError`` if the
            cap is below ``2Δ - 1`` and the search fails within it.
        seed: RNG seed for edge-order shuffles on restarts.

    Returns:
        ``edge_id -> color`` using colors ``0..q-1``.
    """
    delta = graph.max_degree()
    if graph.num_edges == 0:
        return {}
    rng = random.Random(seed)
    guaranteed = 2 * delta - 1
    ceiling = guaranteed if max_colors is None else max_colors

    q = delta
    while q <= ceiling:
        for _attempt in range(_RESTARTS):
            order = graph.edge_ids()
            if _attempt > 0:
                rng.shuffle(order)
            else:
                order.sort(
                    key=lambda eid: -(
                        graph.degree(graph.endpoints(eid)[0])
                        + graph.degree(graph.endpoints(eid)[1])
                    )
                )
            coloring = _try_with_palette(graph, order, q, rng)
            if coloring is not None:
                return coloring
        q += 1
    raise ValueError(
        f"could not color within max_colors={max_colors} (needs <= {guaranteed})"
    )


def _try_with_palette(
    graph: Multigraph, order: List[EdgeId], q: int, rng: random.Random
) -> Optional[Dict[EdgeId, int]]:
    """Attempt a complete proper coloring with exactly ``q`` colors."""
    coloring: Dict[EdgeId, int] = {}
    # at[v][c] = edge id colored c at v (proper => at most one).
    at: Dict[Node, Dict[int, EdgeId]] = {v: {} for v in graph.nodes}

    def free_colors(v: Node) -> List[int]:
        return [c for c in range(q) if c not in at[v]]

    def assign(eid: EdgeId, c: int) -> None:
        u, v = graph.endpoints(eid)
        coloring[eid] = c
        at[u][c] = eid
        at[v][c] = eid

    for eid in order:
        u, v = graph.endpoints(eid)
        if u == v:
            raise ValueError(f"self-loop {eid} cannot be properly colored")
        fu = free_colors(u)
        fv = free_colors(v)
        common = set(fu) & set(fv)
        if common:
            assign(eid, min(common))
            continue
        if not fu or not fv:
            return None
        if not _repair_with_chains(graph, coloring, at, u, v, fu, fv, rng):
            return None
        # After a successful flip some color is free at both ends.
        common = set(free_colors(u)) & set(free_colors(v))
        if not common:
            return None
        assign(eid, min(common))
    return coloring


def _repair_with_chains(
    graph: Multigraph,
    coloring: Dict[EdgeId, int],
    at: Dict[Node, Dict[int, EdgeId]],
    u: Node,
    v: Node,
    free_u: List[int],
    free_v: List[int],
    rng: random.Random,
) -> bool:
    """Flip an ab-chain so ``u`` and ``v`` share a free color.

    For ``a`` free at ``u`` and ``b`` free at ``v``, flipping the
    ``a/b``-chain through ``u`` makes ``b`` free at ``u`` — unless the
    same chain ends at ``v``, in which case the flip also flips ``v``'s
    membership and we try the next pair.
    """
    pairs = [(a, b) for a in free_u for b in free_v if a != b]
    rng.shuffle(pairs)
    for a, b in pairs[:_PAIR_BUDGET]:
        chain = _chain_through(graph, at, u, a, b)
        if any(graph.endpoints(eid)[0] == v or graph.endpoints(eid)[1] == v for eid in chain):
            # v touches the chain: flipping could disturb b at v.  The
            # flip only hurts if v is a chain *endpoint*; checking
            # membership is cheap and conservative.
            continue
        _flip_chain(graph, coloring, at, chain, a, b)
        return True
    return False


def _chain_through(
    graph: Multigraph,
    at: Dict[Node, Dict[int, EdgeId]],
    start: Node,
    a: int,
    b: int,
) -> List[EdgeId]:
    """Edges of the a/b Kempe chain containing ``start``.

    ``start`` misses ``a``, so the chain is a path starting (if
    nonempty) with ``start``'s ``b``-edge.
    """
    chain: List[EdgeId] = []
    cur = start
    want = b
    prev_eid: Optional[EdgeId] = None
    while True:
        eid = at[cur].get(want)
        if eid is None or eid == prev_eid:
            return chain
        chain.append(eid)
        cur = graph.other_endpoint(eid, cur)
        prev_eid = eid
        want = a if want == b else b


def _flip_chain(
    graph: Multigraph,
    coloring: Dict[EdgeId, int],
    at: Dict[Node, Dict[int, EdgeId]],
    chain: List[EdgeId],
    a: int,
    b: int,
) -> None:
    """Swap colors ``a`` and ``b`` along ``chain``, updating indexes.

    Two passes: interior chain nodes carry one edge of each color, so
    removing all old index entries before inserting any new ones keeps
    the per-node color index consistent (a single interleaved pass
    would overwrite an entry and then delete it).
    """
    new_color: Dict[EdgeId, int] = {}
    for eid in chain:
        old = coloring[eid]
        new_color[eid] = a if old == b else b
        x, y = graph.endpoints(eid)
        for node in (x, y):
            if at[node].get(old) == eid:
                del at[node][old]
    for eid, new in new_color.items():
        coloring[eid] = new
        x, y = graph.endpoints(eid)
        for node in (x, y):
            at[node][new] = eid
