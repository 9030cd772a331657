"""Data migration with cloning (multicast destinations).

Khuller, Kim & Wan (PODS'03) — cited in Section II — generalize the
problem: item ``i`` starts on a source disk and must reach a *set* of
destination disks ``D_i`` (popular items get replicas).  Crucially, a
disk that has already received a copy can immediately re-serve it, so
copies spread gossip-style and ``|D_i|`` destinations need only
``ceil(log2(|D_i| + 1))`` rounds of dedicated capacity rather than
``|D_i|``.

This module implements the capacitated variant consistent with the
paper's model (disk ``v`` joins at most ``c_v`` transfers per round):

* :class:`CloningInstance` — items with a source and destination set;
* :func:`cloning_lower_bound` — two bounds: per-disk transfer pressure
  (receives must land on each destination; each source must ship at
  least one copy out) and the broadcast bound
  ``max_i ceil(log2(|D_i| + 1))``;
* :func:`gossip_schedule` — a greedy round-by-round scheduler: every
  round, pending (item, destination) pairs are matched to current
  holders, rarest-copies-first, respecting every ``c_v``;
* :func:`naive_schedule` — the no-cloning baseline (all copies ship
  from the original source), showing the gossip speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Set, Tuple

from repro.core.errors import InvalidInstanceError, ScheduleValidationError

ItemId = Hashable
Node = Hashable
# A transfer: (item, from holder, to destination).
CloneHop = Tuple[ItemId, Node, Node]


@dataclass(frozen=True)
class CloneItem:
    """One item with a source and a destination set."""

    item_id: ItemId
    source: Node
    destinations: FrozenSet[Node]


class CloningInstance:
    """Items with destination sets plus per-disk transfer constraints."""

    def __init__(
        self,
        items: Mapping[ItemId, Tuple[Node, Set[Node]]],
        capacities: Mapping[Node, int],
    ):
        self._items: Dict[ItemId, CloneItem] = {}
        self._capacities = dict(capacities)
        for item_id, (source, dests) in items.items():
            dset = frozenset(dests) - {source}
            if not dset:
                raise InvalidInstanceError(
                    f"item {item_id!r} has no destination besides its source"
                )
            for v in dset | {source}:
                if v not in self._capacities:
                    raise InvalidInstanceError(f"node {v!r} has no capacity")
                if not isinstance(self._capacities[v], int) or self._capacities[v] < 1:
                    raise InvalidInstanceError(
                        f"capacity of {v!r} must be a positive int"
                    )
            self._items[item_id] = CloneItem(item_id, source, dset)

    @property
    def items(self) -> Dict[ItemId, CloneItem]:
        return dict(self._items)

    def capacity(self, v: Node) -> int:
        return self._capacities[v]

    @property
    def nodes(self) -> List[Node]:
        return list(self._capacities)

    @property
    def total_copies(self) -> int:
        return sum(len(it.destinations) for it in self._items.values())


class CloningResult(List[List[CloneHop]]):
    """A cloning schedule: a list of rounds of hops.

    A ``list`` subclass, so everything that consumed the old plain
    list return value keeps working; additionally satisfies the
    :class:`repro.extensions.ExtensionResult` protocol via
    ``num_rounds`` and ``rounds``.
    """

    @property
    def num_rounds(self) -> int:
        return len(self)

    @property
    def rounds(self) -> List[List[CloneHop]]:
        return list(self)


def cloning_lower_bound(instance: CloningInstance) -> int:
    """``max(pressure bound, broadcast bound)``.

    * Pressure: destination ``v`` must *receive* one copy of every item
      wanting it; with ``c_v`` slots per round that takes
      ``ceil(receives_v / c_v)`` rounds (sends from ``v`` only add).
    * Broadcast: each holder sends at most ``c_v`` copies per round, so
      an item's copy count multiplies by at most ``1 + c_max`` per
      round: ``|D_i|`` destinations need at least
      ``ceil(log_{1+c_max}(|D_i| + 1))`` rounds.
    """
    receives: Dict[Node, int] = {}
    for item in instance.items.values():
        for v in item.destinations:
            receives[v] = receives.get(v, 0) + 1
    pressure = max(
        (math.ceil(n / instance.capacity(v)) for v, n in receives.items()),
        default=0,
    )
    c_max = max((instance.capacity(v) for v in instance.nodes), default=1)
    broadcast = max(
        (
            math.ceil(math.log(len(item.destinations) + 1, 1 + c_max) - 1e-12)
            for item in instance.items.values()
        ),
        default=0,
    )
    return max(pressure, broadcast)


def gossip_schedule(instance: CloningInstance, max_rounds: int = 10_000) -> CloningResult:
    """Greedy gossip scheduling: holders double the copy count.

    Each round, pending ``(item, destination)`` pairs are served
    rarest-item-first: items with few holders and many pending
    destinations get priority, and each holder/destination consumes a
    transfer slot.  Validated before returning.
    """
    holders: Dict[ItemId, Set[Node]] = {
        item_id: {item.source} for item_id, item in instance.items.items()
    }
    pending: Dict[ItemId, Set[Node]] = {
        item_id: set(item.destinations) for item_id, item in instance.items.items()
    }

    rounds: CloningResult = CloningResult()
    while any(pending.values()):
        if len(rounds) >= max_rounds:
            raise ScheduleValidationError("gossip scheduler exceeded round cap")
        used: Dict[Node, int] = {v: 0 for v in instance.nodes}
        this_round: List[CloneHop] = []
        receiving: Set[Tuple[ItemId, Node]] = set()

        def slot(v: Node) -> bool:
            return used[v] < instance.capacity(v)

        # Rarest-first: fewest holders relative to remaining demand.
        order = sorted(
            (item_id for item_id, dests in pending.items() if dests),
            key=lambda i: (len(holders[i]) / max(1, len(pending[i])), repr(i)),
        )
        for item_id in order:
            for dst in sorted(pending[item_id], key=repr):
                if (item_id, dst) in receiving or not slot(dst):
                    continue
                src = next(
                    (h for h in sorted(holders[item_id], key=repr) if slot(h)),
                    None,
                )
                if src is None:
                    continue
                used[src] += 1
                used[dst] += 1
                this_round.append((item_id, src, dst))
                receiving.add((item_id, dst))
        if not this_round:
            raise ScheduleValidationError("gossip scheduler stalled (capacities < 1?)")
        for item_id, _src, dst in this_round:
            holders[item_id].add(dst)
            pending[item_id].discard(dst)
        rounds.append(this_round)

    validate_cloning(instance, rounds)
    return rounds


def naive_schedule(instance: CloningInstance) -> CloningResult:
    """No-cloning baseline: every copy ships from the original source."""
    pending: List[CloneHop] = [
        (item.item_id, item.source, dst)
        for item in instance.items.values()
        for dst in sorted(item.destinations, key=repr)
    ]
    rounds: CloningResult = CloningResult()
    while pending:
        used: Dict[Node, int] = {v: 0 for v in instance.nodes}
        this_round: List[CloneHop] = []
        rest: List[CloneHop] = []
        for hop in pending:
            _item, src, dst = hop
            if used[src] < instance.capacity(src) and used[dst] < instance.capacity(dst):
                used[src] += 1
                used[dst] += 1
                this_round.append(hop)
            else:
                rest.append(hop)
        pending = rest
        rounds.append(this_round)
    validate_cloning(instance, rounds)
    return rounds


def best_cloning_schedule(instance: CloningInstance) -> CloningResult:
    """The better of gossip and naive for this instance.

    Gossip wins whenever destination sets are large (copies double);
    naive's FIFO packing can win on many small-fanout items where
    rarest-first ordering misallocates slots.  Both are valid, so the
    shorter one is returned.
    """
    gossip = gossip_schedule(instance)
    naive = naive_schedule(instance)
    return gossip if len(gossip) <= len(naive) else naive


def validate_cloning(instance: CloningInstance, rounds: List[List[CloneHop]]) -> None:
    """Senders must hold the item; capacities hold; everyone is served.

    Raises:
        ScheduleValidationError: on any violation.
    """
    holders: Dict[ItemId, Set[Node]] = {
        item_id: {item.source} for item_id, item in instance.items.items()
    }
    for i, hops in enumerate(rounds):
        used: Dict[Node, int] = {}
        new_holders: List[Tuple[ItemId, Node]] = []
        for item_id, src, dst in hops:
            if src not in holders[item_id]:
                raise ScheduleValidationError(
                    f"round {i}: {src!r} sends item {item_id!r} it does not hold"
                )
            used[src] = used.get(src, 0) + 1
            used[dst] = used.get(dst, 0) + 1
            new_holders.append((item_id, dst))
        for v, n in used.items():
            if n > instance.capacity(v):
                raise ScheduleValidationError(
                    f"round {i}: node {v!r} in {n} transfers, c_v={instance.capacity(v)}"
                )
        for item_id, dst in new_holders:
            holders[item_id].add(dst)
    for item_id, item in instance.items.items():
        missing = item.destinations - holders[item_id]
        if missing:
            raise ScheduleValidationError(
                f"item {item_id!r} never reached {sorted(missing, key=repr)}"
            )
