"""Edge orbits: the Section V growth structures, instrumented.

The production solver (:mod:`repro.core.general`) realizes the paper's
progress lemmas operationally through the flip engine.  This module is
the *reference* implementation of the structures those lemmas reason
about — Definition 5.5 (bad edges), Definition 5.6 (edge orbits and
their growth by alternating paths) and Definition 5.7 (Δ- and
Γ-witnesses) — exposed for study, tests and the ``bench_orbits``
experiment that watches orbits grow on deliberately starved palettes.

It reads and moves the same CSR coloring state as the solver,
:class:`~repro.core.recolor.ArrayColoringState`, so nodes and edges
are the state graph's dense indices.  Where the order of a choice
matters, edges go in edge-id order and nodes in the order of their
labels' ``repr``.

Faithfulness notes:

* orbit *growth* follows Definition 5.6 literally: pick an orbit edge
  ``(x, y)``, colors ``a``/``b`` missing at ``x``/``y`` and *free* for
  the orbit (no orbit edge wears them), trace the ab-path from ``x``
  (Definition 5.2's conditions), and absorb it if it contributes a new
  vertex;
* *witnesses* are detected exactly as Definition 5.7 states: a node
  whose missing colors are all non-free (Δ), or an orbit whose free
  colors are all full (Γ);
* Lemma 5.3's weak-orbit *move* (uncolor a lean edge, color a bad
  edge) is realized by delegating the recoloring to the validated flip
  engine — the structural detection is faithful, the recoloring search
  is the engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.recolor import ArrayColoringState


@dataclass
class EdgeOrbit:
    """A growing edge orbit (Definition 5.6), over edge and node indices."""

    seed: Tuple[int, int]
    edges: Set[int] = field(default_factory=set)
    vertices: Set[int] = field(default_factory=set)
    growth_steps: int = 0

    def free_colors(self, state: ArrayColoringState) -> Set[int]:
        """Colors no orbit edge currently wears."""
        worn = {state.color[e] for e in self.edges if e in state.color}
        return set(range(state.q)) - worn


@dataclass
class GrowthOutcome:
    """Result of one growth attempt."""

    kind: str  # "grown" | "delta_witness" | "gamma_witness" | "exhausted"
    orbit: EdgeOrbit
    witness_node: Optional[int] = None
    added_vertices: Set[int] = field(default_factory=set)


def seed_orbits(state: ArrayColoringState) -> List[EdgeOrbit]:
    """One orbit per group of parallel uncolored (bad) edges.

    Groups are ordered by the ``repr`` of their label pair, and each
    orbit is seeded with its group's two lowest edge ids.
    """
    graph = state.graph
    labels = graph.nodes
    reprs = graph.node_reprs()
    groups: Dict[Tuple[int, int], List[int]] = {}
    for e in state.uncolored_in_id_order():
        u, v = graph.edge_u[e], graph.edge_v[e]
        key = (u, v) if reprs[u] <= reprs[v] else (v, u)
        groups.setdefault(key, []).append(e)
    orbits: List[EdgeOrbit] = []
    for (u, v), edges in sorted(
        groups.items(), key=lambda kv: repr((labels[kv[0][0]], labels[kv[0][1]]))
    ):
        if len(edges) < 2:
            continue
        orbit = EdgeOrbit(seed=(edges[0], edges[1]))
        orbit.edges.update(edges[:2])
        orbit.vertices.update((u, v))
        orbits.append(orbit)
    return orbits


def trace_ab_path(
    state: ArrayColoringState, start: int, a: int, b: int, max_len: Optional[int] = None
) -> List[int]:
    """Trace (without flipping) the alternating ab-path from ``start``.

    Follows Definition 5.2's shape under capacities: beginning with an
    ``a``-colored edge at ``start`` (which must be missing ``b`` and
    not missing ``a``), alternating colors; at each node the unused
    edge of the wanted color with the lowest edge id is taken.  The
    walk may revisit nodes (paths need not be simple) but never reuses
    an edge.
    """
    if not state.is_missing(start, b) or state.is_missing(start, a):
        return []
    graph = state.graph
    cap = max_len if max_len is not None else 2 * max(1, graph.num_edges)
    path: List[int] = []
    used: Set[int] = set()
    cur = start
    want = a
    while len(path) < cap:
        candidates = [e for e in state.edges_at[cur].get(want, ()) if e not in used]
        if not candidates:
            break
        e = min(candidates, key=graph.edge_ids.__getitem__)
        path.append(e)
        used.add(e)
        cur = graph.other_endpoint(e, cur)
        want = b if want == a else a
    return path


def grow_orbit(
    state: ArrayColoringState, orbit: EdgeOrbit, max_attempts: int = 64
) -> GrowthOutcome:
    """One growth step (Lemma 5.4): extend, or report a witness.

    Tries (edge, a, b) combinations whose colors are free for the
    orbit; absorbs the first traced path that contributes a new
    vertex.  If some orbit node misses no free color, that is a
    Δ-witness; if every free color is full over the orbit, a
    Γ-witness; otherwise ``exhausted`` (the search budget ran out
    without growth — operationally treated like a witness).
    """
    graph = state.graph
    free = orbit.free_colors(state)

    # Δ-witness check (Definition 5.7, first kind).
    for v in sorted(orbit.vertices, key=graph.node_reprs().__getitem__):
        if not any(state.is_missing(v, c) for c in free):
            return GrowthOutcome("delta_witness", orbit, witness_node=v)

    # Γ-witness check (second kind): every free color full in O.
    cap_sum = sum(state.cap[v] for v in orbit.vertices)
    if free and all(
        sum(state.count(v, c) for v in orbit.vertices) >= cap_sum - 1 for c in free
    ):
        return GrowthOutcome("gamma_witness", orbit)

    attempts = 0
    for e in sorted(orbit.edges, key=graph.edge_ids.__getitem__):
        x, y = graph.edge_u[e], graph.edge_v[e]
        for a in sorted(free):
            if not state.is_missing(x, a):
                continue
            for b in sorted(free):
                if b == a or not state.is_missing(y, b):
                    continue
                attempts += 1
                if attempts > max_attempts:
                    return GrowthOutcome("exhausted", orbit)
                # Definition 5.2: a path starting at x whose first edge
                # wears b needs x missing a and *not* missing b (the
                # trace enforces its own preconditions and returns []
                # otherwise).  The edge is unordered, so the symmetric
                # start from y is equally valid.
                for start, first, second in ((x, b, a), (y, a, b)):
                    path = trace_ab_path(state, start, first, second)
                    if not path:
                        continue
                    new_nodes: Set[int] = set()
                    for p in path:
                        new_nodes.update((graph.edge_u[p], graph.edge_v[p]))
                    new_nodes -= orbit.vertices
                    if not new_nodes:
                        continue
                    orbit.edges.update(path)
                    orbit.vertices.update(new_nodes)
                    orbit.growth_steps += 1
                    return GrowthOutcome("grown", orbit, added_vertices=new_nodes)
    return GrowthOutcome("exhausted", orbit)


def resolve_weak_orbit(state: ArrayColoringState, orbit: EdgeOrbit) -> bool:
    """Lemma 5.3's move on a weak orbit, via the flip engine.

    Attempts to color one of the orbit's uncolored edges (possibly
    after flips), lowest edge id first.  Returns True on progress; the
    state is validated by the engine's own invariants either way.
    """
    for e in sorted(orbit.edges, key=state.graph.edge_ids.__getitem__):
        if e in state.uncolored and state.try_color_edge(e):
            return True
    return False


@dataclass
class OrbitTrace:
    """Full growth trajectory of one orbit (for the bench/analysis)."""

    final_size: int
    growth_steps: int
    outcome: str
    resolved: bool


def explore_orbits(
    state: ArrayColoringState, max_growth: int = 100
) -> List[OrbitTrace]:
    """Grow every seeded orbit to its conclusion; return trajectories."""
    traces: List[OrbitTrace] = []
    for orbit in seed_orbits(state):
        outcome = "seeded"
        for _ in range(max_growth):
            result = grow_orbit(state, orbit)
            outcome = result.kind
            if result.kind != "grown":
                break
        resolved = resolve_weak_orbit(state, orbit)
        traces.append(
            OrbitTrace(
                final_size=len(orbit.vertices),
                growth_steps=orbit.growth_steps,
                outcome=outcome,
                resolved=resolved,
            )
        )
    return traces
