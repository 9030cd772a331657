"""Baseline schedulers the paper compares against.

* :func:`saia_schedule` — Saia's 1.5-approximation (Section I): make
  ``c_v`` copies of each node, spread its incident edges evenly (copy
  degrees ``<= ceil(d_v/c_v) = Δ'`` at max-degree nodes), properly
  edge-color the split multigraph, contract.  Shannon's theorem bounds
  the palette by ``⌊3Δ'/2⌋``; our colorer is the Kempe-chain engine
  (hard cap ``2Δ'-1``, practically ``Δ'`` or ``Δ'+1``) cross-checked
  with Euler splitting, taking whichever palette is smaller.
* :func:`homogeneous_schedule` — ignore heterogeneity (``c_v = 1`` as
  in Hall et al.): classic proper multigraph edge coloring of the
  transfer graph.  This is the "previous work" yardstick of Figure 2.
* :func:`greedy_schedule` — first-fit capacitated coloring with no
  recoloring: the practitioner's default, ``< 2Δ'`` rounds guaranteed.
"""

from __future__ import annotations

from typing import Dict

from repro.core.general import split_by_capacity
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lift_coloring, lower_instance
from repro.graphs.coloring.euler_split import euler_split_coloring
from repro.graphs.coloring.kempe import kempe_coloring


def saia_schedule(instance: MigrationInstance) -> MigrationSchedule:
    """Saia's copy-split 1.5-approximation baseline.

    Colours the split graph with both the Kempe and the Euler-split
    colourer and keeps the one with fewer colours (Kempe on a tie).
    """
    if instance.num_items == 0:
        return MigrationSchedule([], method="saia")
    split, edge_map = split_by_capacity(instance.graph, instance.capacity)
    coloring = kempe_coloring(split)
    alternative = euler_split_coloring(split)
    if len(set(alternative.values())) < len(set(coloring.values())):
        coloring = alternative
    original = {eid: coloring[seid] for eid, seid in edge_map.items()}
    schedule = MigrationSchedule.from_coloring(original, method="saia")
    schedule.validate(instance)
    return schedule


def homogeneous_schedule(instance: MigrationInstance) -> MigrationSchedule:
    """Schedule as if every disk handled one transfer at a time.

    The resulting schedule is feasible for the heterogeneous instance
    too (it is strictly more conservative); its length shows what prior
    homogeneous-model work would pay on heterogeneous hardware.
    """
    if instance.num_items == 0:
        return MigrationSchedule([], method="homogeneous")
    coloring = kempe_coloring(instance.graph)
    schedule = MigrationSchedule.from_coloring(coloring, method="homogeneous")
    schedule.validate(instance)
    return schedule


def even_rounding_schedule(instance: MigrationInstance) -> MigrationSchedule:
    """Round odd capacities down to even and run the exact algorithm.

    A practical alternative to the orbit machinery: ``c_v - 1`` is even
    whenever ``c_v`` is odd and ``>= 2``, and any schedule for the
    reduced capacities is feasible for the true ones.  The cost is
    bounded: the reduced ``Δ'`` is at most
    ``max_v ceil(d_v / (c_v - 1)) <= (1 + 1/(c_min - 1)) · Δ'``, so for
    fleets without unit-capacity disks this is a cheap
    ``(1 + 1/(c_min-1))``-approximation with an *exact* substrate.  For
    fleets containing ``c_v = 1`` disks the reduction is unavailable
    and ``ValueError`` is raised; use the general algorithm there.

    Raises:
        ValueError: if some ``c_v == 1`` (cannot round down to 0).
    """
    reduced: Dict = {}
    for v, c in instance.capacities.items():
        if c == 1:
            raise ValueError(
                f"disk {v!r} has c_v = 1; even-rounding needs c_v >= 2"
            )
        reduced[v] = c if c % 2 == 0 else c - 1
    from repro.core.even_optimal import even_optimal_schedule_compact

    reduced_instance = MigrationInstance(instance.graph.copy(), reduced)
    schedule = even_optimal_schedule_compact(lower_instance(reduced_instance))
    relabeled = MigrationSchedule(schedule.rounds, method="even_rounding")
    relabeled.validate(instance)
    return relabeled


def greedy_schedule(instance: MigrationInstance) -> MigrationSchedule:
    """First-fit capacitated coloring, no recoloring.

    Guaranteed to finish within ``2Δ' - 1`` rounds: an edge ``(u, v)``
    sees at most ``Δ' - 1`` saturated colors at each endpoint.
    """
    if instance.num_items == 0:
        return MigrationSchedule([], method="greedy")
    ci = lower_instance(instance)
    q = max(1, 2 * ci.delta_prime() - 1)
    state = ArrayColoringState(ci.graph, ci.capacities, q)
    edge_u, edge_v = ci.graph.edge_u, ci.graph.edge_v
    for e in range(ci.graph.num_edges):
        c = state.common_missing_color(edge_u[e], edge_v[e])
        if c is None:
            raise AssertionError("first-fit exceeded its guaranteed palette")
        state.assign(e, c)
    schedule = MigrationSchedule.from_coloring(
        lift_coloring(ci.graph, state.color), method="greedy"
    )
    schedule.validate(instance)
    return schedule
