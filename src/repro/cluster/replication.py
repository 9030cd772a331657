"""Replicated layouts and recovery migrations.

The paper's introduction names failure recovery as a driver: "in the
event of disk additions and removals, it is necessary to quickly
redistribute or recover data".  This module supplies the replication
substrate that scenario needs:

* :class:`ReplicatedLayout` — items stored on ``r`` disks each, with
  invariants (distinct disks; distinct racks when a topology is given
  and racks suffice).
* :func:`place_replicated` — initial placement: replicas go to the
  least-loaded disks subject to the rack constraint.
* :func:`recovery_moves` — after a disk dies, every item that lost a
  replica re-replicates by *copying* from a surviving holder to a
  fresh disk; the resulting copy set is a transfer graph, so the
  paper's schedulers apply unchanged (a copy loads its source and
  target exactly like a move).
* :func:`validate_replication` — invariant checking.

``bench_recovery`` measures the re-replication makespan under each
scheduler: the heterogeneity-aware schedule restores redundancy
fastest, which is the window during which a second failure loses data.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cluster.disk import Disk, DiskId
from repro.cluster.item import DataItem, ItemId
from repro.cluster.network import FabricTopology
from repro.core.errors import InvalidInstanceError, ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId, Multigraph


class ReplicatedLayout:
    """Placement of each item on a *set* of disks."""

    def __init__(self, placement: Optional[Mapping[ItemId, Iterable[DiskId]]] = None):
        self._placement: Dict[ItemId, Set[DiskId]] = {
            item: set(disks) for item, disks in (placement or {}).items()
        }

    def holders(self, item_id: ItemId) -> Set[DiskId]:
        return set(self._placement.get(item_id, set()))

    def place(self, item_id: ItemId, disk_id: DiskId) -> None:
        self._placement.setdefault(item_id, set()).add(disk_id)

    def drop(self, item_id: ItemId, disk_id: DiskId) -> None:
        self._placement[item_id].discard(disk_id)

    def drop_disk(self, disk_id: DiskId) -> List[ItemId]:
        """Remove a disk everywhere; returns the items that lost a copy."""
        hit = []
        for item_id, disks in self._placement.items():
            if disk_id in disks:
                disks.discard(disk_id)
                hit.append(item_id)
        return hit

    def items_on(self, disk_id: DiskId) -> List[ItemId]:
        return [i for i, ds in self._placement.items() if disk_id in ds]

    @property
    def items(self) -> List[ItemId]:
        return list(self._placement)

    def replica_count(self, item_id: ItemId) -> int:
        return len(self._placement.get(item_id, set()))

    def copy(self) -> "ReplicatedLayout":
        return ReplicatedLayout(self._placement)

    def load(self) -> Dict[DiskId, int]:
        out: Dict[DiskId, int] = {}
        for disks in self._placement.values():
            for d in disks:
                out[d] = out.get(d, 0) + 1
        return out


def place_replicated(
    items: Mapping[ItemId, DataItem],
    disks: Iterable[Disk],
    replicas: int,
    topology: Optional[FabricTopology] = None,
    seed: Optional[int] = None,
) -> ReplicatedLayout:
    """Least-loaded placement of ``replicas`` copies per item.

    With a topology, replicas of one item prefer distinct racks; the
    constraint is relaxed (disk-distinct only) when there are fewer
    racks than replicas.

    Args:
        seed: randomize tie-breaking among equally loaded disks.
            Deterministic ties pair the same disks over and over, which
            concentrates a failed disk's recovery sources on one
            partner; a seeded shuffle spreads replica partners (what
            production placement does) and parallelizes recovery.

    Raises:
        InvalidInstanceError: if there are fewer disks than replicas.
    """
    import random as _random

    fleet = list(disks)
    if replicas < 1:
        raise InvalidInstanceError("replicas must be >= 1")
    if len(fleet) < replicas:
        raise InvalidInstanceError(
            f"{replicas} replicas need at least that many disks, have {len(fleet)}"
        )
    rng = _random.Random(seed) if seed is not None else None

    def tiebreak(default: int) -> int:
        # Fresh random ties on every push vary replica partners per
        # item; a fixed tiebreak would pair the same disks repeatedly.
        return rng.randrange(1 << 30) if rng is not None else default

    heap: List[Tuple[int, int, DiskId]] = [
        (0, tiebreak(i), d.disk_id) for i, d in enumerate(fleet)
    ]
    heapq.heapify(heap)
    layout = ReplicatedLayout()
    for item_id in sorted(items, key=repr):
        chosen: List[Tuple[int, int, DiskId]] = []
        racks_used: Set[str] = set()
        skipped: List[Tuple[int, int, DiskId]] = []
        while len(chosen) < replicas and heap:
            load, tie, disk_id = heapq.heappop(heap)
            rack = topology.rack(disk_id) if topology else None
            if topology and rack in racks_used and _rack_count(topology, fleet) >= replicas:
                skipped.append((load, tie, disk_id))
                continue
            chosen.append((load, tie, disk_id))
            if rack is not None:
                racks_used.add(rack)
        for load, tie, disk_id in chosen:
            layout.place(item_id, disk_id)
            heapq.heappush(heap, (load + 1, tiebreak(tie), disk_id))
        for entry in skipped:
            heapq.heappush(heap, entry)
        if layout.replica_count(item_id) < replicas:
            raise InvalidInstanceError(
                f"could not place {replicas} replicas of {item_id!r}"
            )
    return layout


def _rack_count(topology: FabricTopology, fleet: List[Disk]) -> int:
    return len({topology.rack(d.disk_id) for d in fleet})


@dataclass
class RecoveryPlan:
    """Copies needed to restore full replication after a failure."""

    instance: MigrationInstance
    copy_of_edge: Dict[EdgeId, Tuple[ItemId, DiskId, DiskId]]
    degraded_items: List[ItemId]

    @property
    def num_copies(self) -> int:
        return len(self.copy_of_edge)


def recovery_moves(
    layout: ReplicatedLayout,
    failed_disk: DiskId,
    surviving: Iterable[Disk],
    topology: Optional[FabricTopology] = None,
) -> RecoveryPlan:
    """Plan re-replication after ``failed_disk`` dies.

    The layout is mutated: the failed disk's copies are dropped.  Each
    degraded item copies from its least-loaded surviving holder to the
    least-loaded eligible disk (not already a holder; rack-distinct
    when possible).  The resulting copy set becomes a
    :class:`MigrationInstance` schedulable by any of the paper's
    algorithms.

    Raises:
        InvalidInstanceError: if an item has no surviving replica
            (data loss) or no eligible target disk.
    """
    fleet = {d.disk_id: d for d in surviving}
    if failed_disk in fleet:
        raise InvalidInstanceError("failed disk still listed as surviving")
    degraded = layout.drop_disk(failed_disk)

    load = layout.load()
    for d in fleet:
        load.setdefault(d, 0)

    graph = Multigraph(nodes=list(fleet))
    copy_of_edge: Dict[EdgeId, Tuple[ItemId, DiskId, DiskId]] = {}
    for item_id in degraded:
        holders = layout.holders(item_id) & set(fleet)
        if not holders:
            raise InvalidInstanceError(
                f"item {item_id!r} lost its last replica — unrecoverable"
            )
        holder_racks = {topology.rack(h) for h in holders} if topology else set()
        candidates = [
            d for d in fleet
            if d not in layout.holders(item_id)
        ]
        if topology:
            rack_distinct = [d for d in candidates if topology.rack(d) not in holder_racks]
            if rack_distinct:
                candidates = rack_distinct
        if not candidates:
            raise InvalidInstanceError(
                f"no disk can take a new replica of {item_id!r}"
            )
        target = min(candidates, key=lambda d: (load[d], repr(d)))
        source = min(holders, key=lambda d: (load[d], repr(d)))
        eid = graph.add_edge(source, target)
        copy_of_edge[eid] = (item_id, source, target)
        layout.place(item_id, target)
        load[target] += 1

    capacities = {d.disk_id: d.transfer_limit for d in fleet.values()}
    instance = MigrationInstance(graph, capacities)
    return RecoveryPlan(instance=instance, copy_of_edge=copy_of_edge, degraded_items=degraded)


def recovery_moves_balanced(
    layout: ReplicatedLayout,
    failed_disk: DiskId,
    surviving: Iterable[Disk],
    topology: Optional[FabricTopology] = None,
) -> RecoveryPlan:
    """Capability-aware recovery target assignment via min-cost flow.

    :func:`recovery_moves` picks targets greedily by storage load; this
    variant assigns all new replicas *jointly*, with convex per-disk
    costs whose k-th unit costs ``k / transfer_limit`` — so receive
    load lands in proportion to transfer capability, directly
    shrinking the re-replication makespan's receive term.  Sources are
    still the surviving holders (fixed at r = 2).

    Raises:
        InvalidInstanceError: on data loss or unassignable replicas.
    """
    from repro.graphs.mincost import convex_assignment

    fleet = {d.disk_id: d for d in surviving}
    if failed_disk in fleet:
        raise InvalidInstanceError("failed disk still listed as surviving")
    degraded = layout.drop_disk(failed_disk)
    if not degraded:
        graph = Multigraph(nodes=list(fleet))
        capacities = {d.disk_id: d.transfer_limit for d in fleet.values()}
        return RecoveryPlan(MigrationInstance(graph, capacities), {}, [])

    allowed: Dict = {}
    for item_id in degraded:
        holders = layout.holders(item_id) & set(fleet)
        if not holders:
            raise InvalidInstanceError(
                f"item {item_id!r} lost its last replica — unrecoverable"
            )
        holder_racks = {topology.rack(h) for h in holders} if topology else set()
        candidates = [d for d in fleet if d not in layout.holders(item_id)]
        if topology:
            rack_distinct = [
                d for d in candidates if topology.rack(d) not in holder_racks
            ]
            if rack_distinct:
                candidates = rack_distinct
        if not candidates:
            raise InvalidInstanceError(f"no disk can take a replica of {item_id!r}")
        allowed[item_id] = candidates

    n_copies = len(degraded)
    # Convex marginal costs: the k-th replica on disk d costs the
    # receive-rounds it forces, scaled to integers.
    scale = 1
    for d in fleet.values():
        scale = scale * d.transfer_limit // _gcd(scale, d.transfer_limit)
    marginal = {
        d: [(k + 1) * scale // fleet[d].transfer_limit for k in range(n_copies)]
        for d in fleet
    }
    assignment = convex_assignment(
        demands={i: 1 for i in degraded},
        suppliers={d: n_copies for d in fleet},
        allowed=allowed,
        marginal_cost=marginal,
    )

    load = layout.load()
    for d in fleet:
        load.setdefault(d, 0)
    graph = Multigraph(nodes=list(fleet))
    copy_of_edge: Dict[EdgeId, Tuple[ItemId, DiskId, DiskId]] = {}
    for item_id in degraded:
        (target,) = assignment[item_id]
        holders = layout.holders(item_id) & set(fleet)
        source = min(holders, key=lambda d: (load[d], repr(d)))
        eid = graph.add_edge(source, target)
        copy_of_edge[eid] = (item_id, source, target)
        layout.place(item_id, target)
        load[target] += 1

    capacities = {d.disk_id: d.transfer_limit for d in fleet.values()}
    instance = MigrationInstance(graph, capacities)
    return RecoveryPlan(instance=instance, copy_of_edge=copy_of_edge, degraded_items=degraded)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def validate_replication(
    layout: ReplicatedLayout,
    replicas: int,
    topology: Optional[FabricTopology] = None,
    racks_available: Optional[int] = None,
) -> None:
    """Every item has ``replicas`` copies on distinct disks (and racks
    when enough racks exist).

    Raises:
        ScheduleValidationError: on any violation.
    """
    for item_id in layout.items:
        holders = layout.holders(item_id)
        if len(holders) != replicas:
            raise ScheduleValidationError(
                f"item {item_id!r} has {len(holders)} replicas, wants {replicas}"
            )
        if topology is not None:
            racks = {topology.rack(d) for d in holders}
            enough = (racks_available or len(racks)) >= replicas
            if enough and len(racks) != replicas:
                raise ScheduleValidationError(
                    f"item {item_id!r} replicas share racks: {sorted(racks)}"
                )
