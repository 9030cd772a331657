"""Data migration with forwarding (bypass/helper nodes).

The core model delivers every item directly, so the density bound
``Γ' = max_S ceil(|E(S)| / floor(Σ_S c_v / 2))`` is unavoidable: a
triangle of single-transfer disks with one item per pair needs 3
rounds even though every disk is busy only 2 rounds' worth.  Coffman
et al. and Sanders & Solis-Oba observed that *forwarding* breaks this:
route one item through an idle helper and the same triangle finishes
in ``Δ' = 2`` rounds (helper receives in round 1, delivers in round 2).

This module implements a greedy forwarding scheduler:

1. each round, pack pending direct deliveries first-fit under the
   transfer constraints (most-constrained items first);
2. with the leftover capacity, forward blocked items to helpers —
   nodes with both a free slot now and small pending load — each item
   forwarding at most once (two hops total, like the classic bypass
   nodes of Hall et al.).

The result is validated hop by hop and benchmarked against the direct
optimum: on ``Γ'``-bound workloads with idle capacity it approaches
``Δ'``, and it never does worse than the direct general algorithm
(the caller gets ``min(direct, forwarded)`` semantics via the
``direct_rounds`` field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import ScheduleValidationError
from repro.core.lower_bounds import lb1
from repro.core.problem import MigrationInstance
from repro.pipeline.planner import plan
from repro.graphs.multigraph import EdgeId, Node

# A hop: (item edge id, from node, to node).
Hop = Tuple[EdgeId, Node, Node]


@dataclass
class ForwardingResult:
    """Outcome of the forwarding scheduler."""

    rounds: List[List[Hop]]
    forwarded_items: Set[EdgeId]
    direct_rounds: int  # what the direct scheduler needed
    lb1: int            # Δ', valid with or without forwarding

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def improved(self) -> bool:
        return self.num_rounds < self.direct_rounds


def forwarding_schedule(
    instance: MigrationInstance,
    max_rounds: Optional[int] = None,
    direct_method: str = "auto",
) -> ForwardingResult:
    """Schedule with up-to-one-hop forwarding through helper nodes.

    Args:
        instance: the migration instance (items = edges).
        max_rounds: safety cap (default: the direct schedule length —
            forwarding then never loses).
        direct_method: scheduler used for the direct yardstick.

    Returns:
        A validated :class:`ForwardingResult`.
    """
    direct = plan(instance, method=direct_method).schedule
    cap_rounds = max_rounds if max_rounds is not None else max(direct.num_rounds, 1)

    graph = instance.graph
    # Item state: current location and final destination.
    location: Dict[EdgeId, Node] = {}
    dest: Dict[EdgeId, Node] = {}
    for eid, u, v in graph.edges():
        location[eid] = u
        dest[eid] = v
    pending: Set[EdgeId] = set(location)
    forwarded: Set[EdgeId] = set()

    # Remaining sends/receives per node, used to rank helpers.
    def pressure(v: Node) -> float:
        load = sum(1 for e in pending if location[e] == v or dest[e] == v)
        return load / instance.capacity(v)

    rounds: List[List[Hop]] = []
    while pending and len(rounds) < cap_rounds:
        used: Dict[Node, int] = {v: 0 for v in graph.nodes}
        this_round: List[Hop] = []
        moved_this_round: Set[EdgeId] = set()

        def slot_free(v: Node) -> bool:
            return used[v] < instance.capacity(v)

        # Pass 1: direct deliveries, most-constrained endpoints first.
        for eid in sorted(
            pending,
            key=lambda e: -(pressure(location[e]) + pressure(dest[e])),
        ):
            src, dst = location[eid], dest[eid]
            if slot_free(src) and slot_free(dst):
                used[src] += 1
                used[dst] += 1
                this_round.append((eid, src, dst))
                moved_this_round.add(eid)

        # Pass 2: forward blocked items through lightly loaded helpers.
        for eid in sorted(pending - moved_this_round, key=lambda e: -pressure(dest[e])):
            if eid in forwarded:
                continue  # one forward per item (two hops total)
            src, dst = location[eid], dest[eid]
            if not slot_free(src) or slot_free(dst):
                # Forward only when the *destination* is the blocker;
                # otherwise waiting is at least as good.
                continue
            helper = _pick_helper(graph, instance, used, src, dst, pressure)
            if helper is None:
                continue
            used[src] += 1
            used[helper] += 1
            this_round.append((eid, src, helper))
            location[eid] = helper
            forwarded.add(eid)
            moved_this_round.add(eid)

        for eid, _src, to in this_round:
            if to == dest[eid]:
                pending.discard(eid)
                location[eid] = to
            # forwarded hops already updated location above.
        if not this_round:
            # No progress possible under the cap: bail to the direct
            # schedule semantics (caller compares round counts).
            break
        rounds.append(this_round)

    if pending:
        # Could not finish within the cap — report the direct result
        # as the effective plan by signalling no improvement.
        result = ForwardingResult(
            rounds=[], forwarded_items=set(), direct_rounds=direct.num_rounds,
            lb1=lb1(instance),
        )
        return result

    result = ForwardingResult(
        rounds=rounds,
        forwarded_items=forwarded,
        direct_rounds=direct.num_rounds,
        lb1=lb1(instance),
    )
    validate_forwarding(instance, result)
    return result


def _pick_helper(graph, instance, used, src, dst, pressure) -> Optional[Node]:
    """The least-pressured node with a free slot (not src/dst)."""
    best: Optional[Node] = None
    best_score = None
    for w in graph.nodes:
        if w in (src, dst) or used[w] >= instance.capacity(w):
            continue
        score = (pressure(w), repr(w))
        if best_score is None or score < best_score:
            best, best_score = w, score
    return best


def validate_forwarding(instance: MigrationInstance, result: ForwardingResult) -> None:
    """Check hop continuity, delivery and per-round capacities.

    Raises:
        ScheduleValidationError: on any violation.
    """
    if not result.rounds and instance.num_items > 0:
        return  # the "fell back to direct" sentinel
    graph = instance.graph
    location: Dict[EdgeId, Node] = {}
    for eid, u, _v in graph.edges():
        location[eid] = u
    for i, hops in enumerate(result.rounds):
        used: Dict[Node, int] = {}
        for eid, src, to in hops:
            if location[eid] != src:
                raise ScheduleValidationError(
                    f"round {i}: item {eid} hops from {src!r} but is at {location[eid]!r}"
                )
            used[src] = used.get(src, 0) + 1
            used[to] = used.get(to, 0) + 1
            location[eid] = to
        for v, n in used.items():
            if n > instance.capacity(v):
                raise ScheduleValidationError(
                    f"round {i}: node {v!r} does {n} transfers, c_v={instance.capacity(v)}"
                )
    for eid, _u, v in graph.edges():
        if location[eid] != v:
            raise ScheduleValidationError(
                f"item {eid} ended at {location[eid]!r}, wanted {v!r}"
            )
