"""Orbit structures of Section V (Definitions 5.3–5.7).

Given a partial capacitated coloring, the uncolored edges induce
subgraphs whose structure dictates what progress is possible:

* **balancing orbit** — an uncolored component containing a node that
  *strongly* misses some color (Definition 5.3).  Lemma 5.1: an
  uncolored edge can then always be colored (possibly after an ab-path
  flip).
* **color orbit** — an uncolored component with two nodes *lightly*
  missing the same color (Definition 5.4).  Lemma 5.2: ditto.
* **bad / lean edges** (Definition 5.5) — parallel uncolored edges,
  which Phase 1 must eliminate so the residual graph ``G₀`` is simple.
* **hard orbit** — a tight component where neither structure exists;
  Lemma 5.4 says such a component either grows or exhibits a Δ- or
  Γ-**witness** (Definition 5.7), certifying that the current palette
  is within the theorem's budget and may be enlarged.

This module provides pure *detection* (no mutation); the moves
themselves live in :mod:`repro.core.recolor` and the driving loop in
:mod:`repro.core.general`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.recolor import ArrayColoringState, ColoringState, mask_bits
from repro.graphs.multigraph import EdgeId, Node


@dataclass
class OrbitReport:
    """Classification of one uncolored component."""

    nodes: Set[Node]
    edges: List[EdgeId]
    kind: str  # "balancing" | "color" | "hard"
    # For balancing orbits: a (node, strongly missing color) pair.
    strong_node: Optional[Tuple[Node, int]] = None
    # For color orbits: (node_a, node_b, jointly lightly missing color).
    light_pair: Optional[Tuple[Node, Node, int]] = None
    has_bad_edges: bool = False


def uncolored_components(state: ColoringState) -> List[OrbitReport]:
    """Group uncolored edges into connected components and classify.

    Components are connected via uncolored edges only, matching the
    node-induced-by-uncolored-edges notion the paper's orbits use.
    """
    graph = state.graph
    # Adjacency restricted to uncolored edges.
    adj: Dict[Node, List[Tuple[EdgeId, Node]]] = {}
    for eid in sorted(state.uncolored):
        u, v = graph.endpoints(eid)
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))

    seen: Set[Node] = set()
    reports: List[OrbitReport] = []
    for start in adj:
        if start in seen:
            continue
        nodes: Set[Node] = {start}
        edges: Set[EdgeId] = set()
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for eid, y in adj.get(x, ()):  # noqa: B023 - local structure
                edges.add(eid)
                if y not in seen:
                    seen.add(y)
                    nodes.add(y)
                    stack.append(y)
        reports.append(_classify(state, nodes, sorted(edges)))
    return reports


def _classify(state: ColoringState, nodes: Set[Node], edges: List[EdgeId]) -> OrbitReport:
    strong = find_strongly_missing(state, nodes)
    if strong is not None:
        return OrbitReport(
            nodes, edges, "balancing", strong_node=strong,
            has_bad_edges=_has_bad_edges(state, edges),
        )
    pair = find_shared_lightly_missing(state, nodes)
    if pair is not None:
        return OrbitReport(
            nodes, edges, "color", light_pair=pair,
            has_bad_edges=_has_bad_edges(state, edges),
        )
    return OrbitReport(nodes, edges, "hard", has_bad_edges=_has_bad_edges(state, edges))


def find_strongly_missing(
    state: ColoringState, nodes: Set[Node]
) -> Optional[Tuple[Node, int]]:
    """A (node, color) with the color strongly missing, if any."""
    for v in sorted(nodes, key=repr):
        for c in range(state.q):
            if state.is_strongly_missing(v, c):
                return (v, c)
    return None


def find_shared_lightly_missing(
    state: ColoringState, nodes: Set[Node]
) -> Optional[Tuple[Node, Node, int]]:
    """Two nodes lightly missing the same color, if any."""
    owner: Dict[int, Node] = {}
    for v in sorted(nodes, key=repr):
        for c in range(state.q):
            if state.is_lightly_missing(v, c):
                if c in owner and owner[c] != v:
                    return (owner[c], v, c)
                owner.setdefault(c, v)
    return None


def _has_bad_edges(state: ColoringState, edges: List[EdgeId]) -> bool:
    pairs: Set[Tuple[Node, Node]] = set()
    for eid in edges:
        u, v = state.graph.endpoints(eid)
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key in pairs:
            return True
        pairs.add(key)
    return False


def bad_edge_groups(state: ColoringState) -> List[List[EdgeId]]:
    """Groups of parallel uncolored edges (Definition 5.5's bad edges)."""
    groups: Dict[Tuple[Node, Node], List[EdgeId]] = {}
    for eid in sorted(state.uncolored):
        u, v = state.graph.endpoints(eid)
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        groups.setdefault(key, []).append(eid)
    return [g for g in groups.values() if len(g) > 1]


# ----------------------------------------------------------------------
# Witness diagnostics (Definition 5.7) — used by the driver to justify
# palette growth and by the benchmarks to report why q increased.
# ----------------------------------------------------------------------

def free_colors_of_orbit(state: ColoringState, report: OrbitReport) -> Set[int]:
    """Colors not used by any colored edge inside the orbit."""
    used: Set[int] = set()
    graph = state.graph
    for v in report.nodes:
        for c, eids in state.edges_at[v].items():
            for eid in eids:
                other = graph.other_endpoint(eid, v)
                if other in report.nodes:
                    used.add(c)
    return set(range(state.q)) - used


def is_delta_witness(state: ColoringState, report: OrbitReport) -> bool:
    """Δ-witness: some node of the orbit misses no free color."""
    free = free_colors_of_orbit(state, report)
    for v in report.nodes:
        if not any(state.is_missing(v, c) for c in free):
            return True
    return False


def is_gamma_witness(state: ColoringState, report: OrbitReport) -> bool:
    """Γ-witness: every free color of the orbit is full.

    A color is *full* in an orbit ``O`` when at most one vertex of
    ``O`` still has a slot for it, i.e.
    ``Σ_v E_c(v) >= Σ_v c_v - 1`` over ``O`` — it cannot color an
    uncolored edge inside ``O``.
    """
    free = free_colors_of_orbit(state, report)
    if not free:
        return True
    cap_sum = sum(state.cap[v] for v in report.nodes)
    # All colors are checked and the boolean verdict is order-independent.
    for c in free:  # repro: allow-set-iter
        used = sum(state.count(v, c) for v in report.nodes)
        if used < cap_sum - 1:
            return False
    return True


# ----------------------------------------------------------------------
# Array backend (byte-identical mirrors over ArrayColoringState).
# Reports carry node *indices* in ``nodes`` and edge *indices* (sorted
# by edge id, matching the object reports' id-sorted edge lists) in
# ``edges``; the general driver only consumes ``kind`` and the node
# count, which agree with the object reports by construction.
# ----------------------------------------------------------------------

def compact_uncolored_components(state: ArrayColoringState) -> List[OrbitReport]:
    """Array mirror of :func:`uncolored_components`."""
    graph = state.graph
    edge_u, edge_v = graph.edge_u, graph.edge_v
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for e in state.uncolored_in_id_order():
        u, v = edge_u[e], edge_v[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))

    seen: Set[int] = set()
    reports: List[OrbitReport] = []
    for start in adj:
        if start in seen:
            continue
        nodes: Set[int] = {start}
        edges: Set[int] = set()
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for e, y in adj.get(x, ()):  # noqa: B023 - local structure
                edges.add(e)
                if y not in seen:
                    seen.add(y)
                    nodes.add(y)
                    stack.append(y)
        reports.append(
            _compact_classify(
                state, nodes, sorted(edges, key=graph.edge_ids.__getitem__)
            )
        )
    return reports


def _compact_classify(
    state: ArrayColoringState, nodes: Set[int], edges: List[int]
) -> OrbitReport:
    strong = compact_find_strongly_missing(state, nodes)
    if strong is not None:
        return OrbitReport(
            nodes, edges, "balancing", strong_node=strong,
            has_bad_edges=_compact_has_bad_edges(state, edges),
        )
    pair = compact_find_shared_lightly_missing(state, nodes)
    if pair is not None:
        return OrbitReport(
            nodes, edges, "color", light_pair=pair,
            has_bad_edges=_compact_has_bad_edges(state, edges),
        )
    return OrbitReport(
        nodes, edges, "hard", has_bad_edges=_compact_has_bad_edges(state, edges)
    )


def compact_find_strongly_missing(
    state: ArrayColoringState, nodes: Set[int]
) -> Optional[Tuple[int, int]]:
    """Array mirror of :func:`find_strongly_missing`.

    ``sorted(nodes, key=repr)`` becomes a sort by cached repr rank —
    the same order whenever node reprs are unique (the fingerprint
    precondition).
    """
    rank = state.graph.repr_rank()
    palette = (1 << state.q) - 1
    for v in sorted(nodes, key=rank.__getitem__):
        strong = ~state.near[v] & palette
        if strong:
            return (v, (strong & -strong).bit_length() - 1)
    return None


def compact_find_shared_lightly_missing(
    state: ArrayColoringState, nodes: Set[int]
) -> Optional[Tuple[int, int, int]]:
    """Array mirror of :func:`find_shared_lightly_missing`."""
    rank = state.graph.repr_rank()
    palette = (1 << state.q) - 1
    owner: Dict[int, int] = {}
    for v in sorted(nodes, key=rank.__getitem__):
        for c in mask_bits(state.near[v] & ~state.full[v] & palette):
            if c in owner:
                return (owner[c], v, c)
            owner[c] = v
    return None


def _compact_has_bad_edges(state: ArrayColoringState, edges: List[int]) -> bool:
    graph = state.graph
    rank = graph.repr_rank()
    pairs: Set[Tuple[int, int]] = set()
    for e in edges:
        u, v = graph.edge_u[e], graph.edge_v[e]
        key = (u, v) if rank[u] <= rank[v] else (v, u)
        if key in pairs:
            return True
        pairs.add(key)
    return False


def compact_bad_edge_groups(state: ArrayColoringState) -> List[List[int]]:
    """Array mirror of :func:`bad_edge_groups` (edge indices)."""
    graph = state.graph
    rank = graph.repr_rank()
    groups: Dict[Tuple[int, int], List[int]] = {}
    for e in state.uncolored_in_id_order():
        u, v = graph.edge_u[e], graph.edge_v[e]
        key = (u, v) if rank[u] <= rank[v] else (v, u)
        groups.setdefault(key, []).append(e)
    return [g for g in groups.values() if len(g) > 1]


def compact_free_colors_of_orbit(
    state: ArrayColoringState, report: OrbitReport
) -> Set[int]:
    """Array mirror of :func:`free_colors_of_orbit` (set result)."""
    used: Set[int] = set()
    graph = state.graph
    # Set iteration below: the union being built is order-independent.
    for v in report.nodes:  # repro: allow-set-iter
        for c, eids in state.edges_at[v].items():
            for e in eids:
                other = graph.other_endpoint(e, v)
                if other in report.nodes:
                    used.add(c)
    return set(range(state.q)) - used


def compact_is_delta_witness(state: ArrayColoringState, report: OrbitReport) -> bool:
    """Array mirror of :func:`is_delta_witness` (boolean verdict)."""
    free = compact_free_colors_of_orbit(state, report)
    for v in report.nodes:  # repro: allow-set-iter
        if not any(state.is_missing(v, c) for c in free):
            return True
    return False


def compact_is_gamma_witness(state: ArrayColoringState, report: OrbitReport) -> bool:
    """Array mirror of :func:`is_gamma_witness` (boolean verdict)."""
    free = compact_free_colors_of_orbit(state, report)
    if not free:
        return True
    cap_sum = sum(state.cap[v] for v in report.nodes)
    for c in free:  # repro: allow-set-iter
        used = sum(state.count(v, c) for v in report.nodes)
        if used < cap_sum - 1:
            return False
    return True
