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

This module provides pure *detection* (no mutation) over the CSR
coloring state :class:`~repro.core.recolor.ArrayColoringState`; the
moves themselves live in :mod:`repro.core.recolor` and the driving loop
in :mod:`repro.core.general`.  Every answer is a yes/no verdict or a
set, so none depends on the order nodes or edges are visited in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.recolor import ArrayColoringState


@dataclass
class OrbitReport:
    """Classification of one uncolored component.

    ``nodes`` holds node indices of the state's CSR graph.
    """

    nodes: Set[int]
    kind: str  # "balancing" | "color" | "hard"


def compact_uncolored_components(state: ArrayColoringState) -> List[OrbitReport]:
    """Group uncolored edges into connected components and classify.

    Components are connected via uncolored edges only, matching the
    node-induced-by-uncolored-edges notion the paper's orbits use.
    """
    edge_u, edge_v = state.graph.edge_u, state.graph.edge_v
    adj: Dict[int, List[int]] = {}
    for e in sorted(state.uncolored):
        u, v = edge_u[e], edge_v[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    seen: Set[int] = set()
    reports: List[OrbitReport] = []
    for start in adj:
        if start in seen:
            continue
        nodes: Set[int] = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nodes.add(y)
                    stack.append(y)
        reports.append(OrbitReport(nodes, _compact_classify(state, nodes)))
    return reports


def _compact_classify(state: ArrayColoringState, nodes: Set[int]) -> str:
    if compact_find_strongly_missing(state, nodes):
        return "balancing"
    if compact_find_shared_lightly_missing(state, nodes):
        return "color"
    return "hard"


def compact_find_strongly_missing(state: ArrayColoringState, nodes: Set[int]) -> bool:
    """Some node of ``nodes`` strongly misses some color below ``q``."""
    palette = (1 << state.q) - 1
    near = state.near
    return any(~near[v] & palette for v in nodes)


def compact_find_shared_lightly_missing(
    state: ArrayColoringState, nodes: Set[int]
) -> bool:
    """Two nodes of ``nodes`` lightly miss the same color below ``q``."""
    palette = (1 << state.q) - 1
    seen = 0
    # The verdict does not depend on the visiting order.
    for v in nodes:  # repro: allow-set-iter
        light = state.near[v] & ~state.full[v] & palette
        if light & seen:
            return True
        seen |= light
    return False


def compact_bad_edge_groups(state: ArrayColoringState) -> bool:
    """Two uncolored edges join the same pair of nodes.

    Such parallel uncolored edges are Definition 5.5's bad edges; a
    self-loop pairs a node with itself.
    """
    edge_u, edge_v = state.graph.edge_u, state.graph.edge_v
    pairs = {
        (edge_u[e], edge_v[e]) if edge_u[e] <= edge_v[e] else (edge_v[e], edge_u[e])
        for e in state.uncolored
    }
    return len(pairs) < len(state.uncolored)


# ----------------------------------------------------------------------
# Witness diagnostics (Definition 5.7) — used by the driver to record
# whether a palette growth was witnessed.
# ----------------------------------------------------------------------

def compact_free_colors_of_orbit(
    state: ArrayColoringState, report: OrbitReport
) -> Set[int]:
    """Colors not used by any colored edge inside the orbit."""
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
    """Δ-witness: some node of the orbit misses no free color."""
    free = compact_free_colors_of_orbit(state, report)
    for v in report.nodes:  # repro: allow-set-iter
        if not any(state.is_missing(v, c) for c in free):
            return True
    return False


def compact_is_gamma_witness(state: ArrayColoringState, report: OrbitReport) -> bool:
    """Γ-witness: every free color of the orbit is full.

    A color is *full* in an orbit ``O`` when at most one vertex of
    ``O`` still has a slot for it, i.e.
    ``Σ_v E_c(v) >= Σ_v c_v - 1`` over ``O`` — it cannot color an
    uncolored edge inside ``O``.
    """
    free = compact_free_colors_of_orbit(state, report)
    if not free:
        return True
    cap_sum = sum(state.cap[v] for v in report.nodes)
    # All colors are checked and the boolean verdict is order-independent.
    for c in free:  # repro: allow-set-iter
        used = sum(state.count(v, c) for v in report.nodes)
        if used < cap_sum - 1:
            return False
    return True
