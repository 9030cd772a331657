"""The (1 + o(1))-approximation for arbitrary constraints (Section V).

The driver follows the paper's two-phase structure:

**Phase 1** maintains a partial capacitated coloring with ``q`` colors
(``q`` starts at the certified lower bound — at least as ambitious as
the paper's ``(1+ε)Δ' + 1``).  It sweeps the uncolored edges applying
the orbit moves: balancing-orbit and color-orbit progress are realized
by :meth:`ArrayColoringState.try_color_edge` (common missing color, else
ab-path flips — Lemmas 5.1/5.2), which also eliminates *bad* (parallel
uncolored) edges.  When a sweep makes no progress, the uncolored
components are classified (:mod:`repro.core.orbits`): if the residue is
already a simple graph of small components — a collection of *hard
orbits* (Corollary 5.1 bounds their size by ``1 + 1/ε ≈ √OPT``) —
Phase 2 takes over; otherwise the stall is treated as a witness
(Definition 5.7, Lemma 5.4) and the palette grows by one color, which
Corollary 5.2 keeps within ``OPT + 2/ε``.

**Phase 2** (Section V-C3) colors the residual simple graph ``G₀``:
every node ``v`` splits into ``c_v`` copies, its residual edges are
spread round-robin (so each copy has degree ``<= ceil(d_v(G₀)/c_v)``),
Misra–Gries (Vizing ``Δ+1``) colors the split graph with fresh colors,
and contraction maps copy-colors back — at most ``c_v`` same-colored
edges can meet at ``v``, one per copy, so constraints hold (Lemma 5.8).

:func:`general_schedule_compact` runs Phase 1 on the flat CSR arrays
of :mod:`repro.graphs.array_backend` and leaves validating the schedule
to its callers.  The number of colors is the quantity the theorem
bounds (``OPT + O(√OPT)``), and the benchmark harness measures it
against ``LB + 2⌈√LB⌉`` on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.lower_bounds import lower_bound
from repro.core.orbits import (
    compact_bad_edge_groups,
    compact_is_delta_witness,
    compact_is_gamma_witness,
    compact_uncolored_components,
)
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import CompactInstance, lift_coloring
from repro.graphs.coloring.vizing import vizing_coloring
from repro.graphs.multigraph import EdgeId, Multigraph, Node


@dataclass
class GeneralSolverStats:
    """Diagnostics describing one run of the general algorithm."""

    lower_bound: int = 0
    initial_colors: int = 0
    palette_growths: int = 0
    witnessed_growths: int = 0
    phase1_colors: int = 0
    phase2_colors: int = 0
    phase2_edges: int = 0
    sweeps: int = 0
    flips_attempted: int = 0

    @property
    def total_colors(self) -> int:
        return self.phase1_colors + self.phase2_colors

    def theorem_budget(self) -> int:
        """``LB + 2·ceil(sqrt(LB)) + 2`` — the Theorem 5.1 yardstick."""
        return self.lower_bound + 2 * math.isqrt(max(0, self.lower_bound)) + 2


def general_schedule_compact(
    ci: CompactInstance,
    seed: int = 0,
    stats: Optional[GeneralSolverStats] = None,
) -> MigrationSchedule:
    """Schedule an arbitrary-constraint instance (Theorem 5.1).

    Phase 1 runs entirely on :class:`ArrayColoringState` — the hot
    sweep/flip loop touches only dense int arrays and small dicts of
    ints.  The cold paths stay on the object instance: the lower bound
    and the Phase 2 residual Vizing pass (a few dozen edges by
    Corollary 5.1) run against ``ci.source``.  The lifted Phase 1
    coloring dict keeps the assignment history order, which
    ``from_coloring`` fills rounds in; the frozen digests pin it.

    The schedule is returned unvalidated: its callers check it once
    where it ends up (the planner validates each merged plan,
    ``exact_bb`` its own schedule).

    Args:
        ci: the lowered instance.
        seed: RNG seed for sweep orders and flip tie-breaking.
        stats: optional mutable stats object filled in during the run.
    """
    stats = stats if stats is not None else GeneralSolverStats()
    if ci.graph.num_edges == 0:
        return MigrationSchedule([], method="general")

    lb = lower_bound(ci.source)
    stats.lower_bound = lb
    epsilon = 1.0 / math.sqrt(lb) if lb > 0 else 1.0
    q0 = max(lb, 1)
    stats.initial_colors = q0

    state = ArrayColoringState(ci.graph, ci.capacities, q0, seed=seed)
    residual_ids = _phase1_compact(ci, state, epsilon, stats)
    stats.phase1_colors = state.q

    coloring: Dict[EdgeId, int] = lift_coloring(ci.graph, state.color)
    if residual_ids is not None:
        residual = ci.source.graph.edge_subgraph(residual_ids)
        phase2 = _phase2_color_residual(ci.source, residual)
        stats.phase2_edges = residual.num_edges
        stats.phase2_colors = (max(phase2.values()) + 1) if phase2 else 0
        for eid, c in phase2.items():
            coloring[eid] = state.q + c

    return MigrationSchedule.from_coloring(coloring, method="general")


# ----------------------------------------------------------------------
# Phase 1
# ----------------------------------------------------------------------

def _phase1_compact(
    ci: CompactInstance,
    state: ArrayColoringState,
    epsilon: float,
    stats: GeneralSolverStats,
) -> Optional[List[EdgeId]]:
    """Color edges until the residue is a small simple graph (or empty).

    Sweeps the uncolored edges in edge-id order.  Returns the residual
    graph ``G₀``'s edge ids, ascending, for Phase 2, or None if Phase 1
    colored everything.
    """
    # Hard orbits have at most (q+2)/(q-2Δ'') ≈ 1 + 1/ε nodes
    # (Lemma 5.7 / Corollary 5.1); allow slack of one node.
    component_cap = max(4, math.ceil(2 + 1.0 / epsilon))
    # Safety net: with 2Δ' - 1 colors even first-fit cannot stall, so
    # palette growth is finite regardless of flip-search luck.
    hard_palette_cap = max(2 * ci.delta_prime() - 1, state.q)

    order = state.uncolored_in_id_order()
    while state.uncolored:
        stats.sweeps += 1
        progress = False
        for e in list(order):
            if e not in state.uncolored:
                continue
            stats.flips_attempted += 1
            if state.try_color_edge(e):
                progress = True
        order = state.uncolored_in_id_order()
        if not state.uncolored:
            return None
        if progress:
            continue

        # Stalled sweep: classify the uncolored components.
        reports = compact_uncolored_components(state)
        all_hard = all(r.kind == "hard" for r in reports)
        small = all(len(r.nodes) <= component_cap for r in reports)
        if all_hard and small and not compact_bad_edge_groups(state):
            # A collection of hard orbits: ship to Phase 2.  Sorted so
            # the residual graph's edge enumeration order (which feeds
            # Phase 2's round-robin node splitting) is a function of
            # the uncolored id *set*.
            edge_ids = ci.graph.edge_ids
            return sorted(edge_ids[e] for e in state.uncolored)

        # Otherwise the stall plays the role of a witness: grow the
        # palette (Lemma 5.4 step 3b).  Record whether a formal
        # witness is actually present, for the diagnostics.
        if any(
            compact_is_delta_witness(state, r) or compact_is_gamma_witness(state, r)
            for r in reports
        ):
            stats.witnessed_growths += 1
        state.add_color()
        stats.palette_growths += 1
        if state.q > hard_palette_cap:
            # Unreachable in theory (first-fit succeeds below the cap);
            # loud guard instead of a silent spin.
            raise AssertionError(
                f"palette grew past the 2Δ'-1 safety cap ({hard_palette_cap})"
            )
    return None


# ----------------------------------------------------------------------
# Phase 2
# ----------------------------------------------------------------------

def split_by_capacity(
    graph: Multigraph, capacity: Callable[[Node], int]
) -> Tuple[Multigraph, Dict[EdgeId, EdgeId]]:
    """Copy each node ``c_v`` times and spread its edges round-robin.

    Node ``v`` becomes ``(v, 0) .. (v, c_v - 1)``; its ``k``-th edge in
    ``graph.edges()`` order goes to copy ``k mod c_v``, so each copy
    has degree at most ``ceil(d_v / c_v)``.  A proper coloring of the
    split graph contracts to a capacitated one: at most ``c_v``
    same-colored edges meet at ``v``, one per copy (Lemma 5.8).  Phase 2
    splits the residual graph this way and Saia's baseline the whole
    transfer graph.

    Returns the split multigraph and the original->split edge id map.
    """
    split = Multigraph()
    cursor: Dict[Node, int] = {}
    for v in graph.nodes:
        cursor[v] = 0
        for k in range(capacity(v)):
            split.add_node((v, k))
    edge_map: Dict[EdgeId, EdgeId] = {}
    for eid, u, v in graph.edges():
        cu = (u, cursor[u] % capacity(u))
        cv = (v, cursor[v] % capacity(v))
        cursor[u] += 1
        cursor[v] += 1
        edge_map[eid] = split.add_edge(cu, cv)
    return split, edge_map


def _phase2_color_residual(
    instance: MigrationInstance, residual: Multigraph
) -> Dict[EdgeId, int]:
    """Color the simple residual graph via node splitting + Vizing.

    Returns colors in a fresh palette ``0..Δ(split)`` which the caller
    offsets above Phase 1's palette.
    """
    split, split_eid_of = split_by_capacity(residual, instance.capacity)
    split_coloring = vizing_coloring(split)
    return {eid: split_coloring[seid] for eid, seid in split_eid_of.items()}
