"""Data layouts: item placements and target-layout computation.

The migration problem starts from two layouts — where items are and
where they should be.  This module provides the placement map plus the
two layout policies the paper's introduction motivates:

* :func:`balanced_target` — demand-aware load balancing: place items
  so per-disk demand is even (greedy LPT on demand weight), the
  "changing user demand patterns" scenario;
* :func:`spread_onto` — redistribute data onto a grown/shrunk disk set
  (disk addition/removal), keeping per-disk item counts proportional
  to space.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.disk import Disk, DiskId
from repro.cluster.item import DataItem, ItemId


class Layout:
    """A placement of items on disks (one replica per item)."""

    def __init__(self, placement: Optional[Mapping[ItemId, DiskId]] = None):
        self._placement: Dict[ItemId, DiskId] = dict(placement or {})

    def place(self, item_id: ItemId, disk_id: DiskId) -> None:
        self._placement[item_id] = disk_id

    def remove(self, item_id: ItemId) -> None:
        del self._placement[item_id]

    def disk_of(self, item_id: ItemId) -> DiskId:
        return self._placement[item_id]

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._placement

    def items_on(self, disk_id: DiskId) -> List[ItemId]:
        return [i for i, d in self._placement.items() if d == disk_id]

    @property
    def items(self) -> List[ItemId]:
        return list(self._placement)

    def as_dict(self) -> Dict[ItemId, DiskId]:
        return dict(self._placement)

    def copy(self) -> "Layout":
        return Layout(self._placement)

    def load(
        self, items: Mapping[ItemId, DataItem], by: str = "count"
    ) -> Dict[DiskId, float]:
        """Per-disk load: ``count``, ``size`` or ``demand``."""
        loads: Dict[DiskId, float] = {}
        for item_id, disk_id in self._placement.items():
            if by == "count":
                w = 1.0
            elif by == "size":
                w = items[item_id].size
            elif by == "demand":
                w = items[item_id].demand
            else:
                raise ValueError(f"unknown load metric {by!r}")
            loads[disk_id] = loads.get(disk_id, 0.0) + w
        return loads

    def moves_to(self, target: "Layout") -> List[Tuple[ItemId, DiskId, DiskId]]:
        """Items that must migrate: ``(item, source_disk, target_disk)``.

        Items appearing in only one layout are ignored (creation and
        deletion are not migrations).
        """
        moves = []
        for item_id, src in self._placement.items():
            if item_id in target and target.disk_of(item_id) != src:
                moves.append((item_id, src, target.disk_of(item_id)))
        return moves

    def __len__(self) -> int:
        return len(self._placement)

    def __repr__(self) -> str:
        return f"Layout(items={len(self._placement)})"


def balanced_target(
    items: Mapping[ItemId, DataItem],
    disks: Iterable[Disk],
    weight: str = "demand",
) -> Layout:
    """Demand-balanced placement via greedy LPT.

    Items are placed heaviest-first onto the currently least-loaded
    disk (load normalized by disk bandwidth so faster disks absorb
    hotter data), respecting disk space.
    """
    disk_list = list(disks)
    if not disk_list:
        raise ValueError("no disks to place onto")
    heap: List[Tuple[float, int, DiskId]] = [
        (0.0, i, d.disk_id) for i, d in enumerate(disk_list)
    ]
    heapq.heapify(heap)
    by_id = {d.disk_id: d for d in disk_list}
    used_space: Dict[DiskId, float] = {d.disk_id: 0.0 for d in disk_list}

    def item_weight(item: DataItem) -> float:
        return item.demand if weight == "demand" else item.size

    layout = Layout()
    for item in sorted(items.values(), key=item_weight, reverse=True):
        placed = False
        skipped: List[Tuple[float, int, DiskId]] = []
        while heap:
            load, tie, disk_id = heapq.heappop(heap)
            disk = by_id[disk_id]
            if used_space[disk_id] + item.size <= disk.space:
                layout.place(item.item_id, disk_id)
                used_space[disk_id] += item.size
                heapq.heappush(
                    heap, (load + item_weight(item) / disk.bandwidth, tie, disk_id)
                )
                placed = True
                break
            skipped.append((load, tie, disk_id))
        for entry in skipped:
            heapq.heappush(heap, entry)
        if not placed:
            raise ValueError(f"no disk has space for item {item.item_id!r}")
    return layout


def spread_onto(
    current: Layout,
    items: Mapping[ItemId, DataItem],
    disks: Iterable[Disk],
) -> Layout:
    """Rebalance item *counts* onto a new disk set, moving few items.

    Target per-disk quotas are proportional to disk space (equal for
    unlimited disks).  Items already on a surviving disk stay put while
    the disk is under quota; the overflow and any items on vanished
    disks migrate to under-quota disks.  This mirrors the paper's disk
    addition/removal scenario.
    """
    disk_list = list(disks)
    if not disk_list:
        raise ValueError("no disks to spread onto")
    ids = [d.disk_id for d in disk_list]
    total = len(current)
    finite = [d for d in disk_list if d.space != float("inf")]
    if finite and len(finite) == len(disk_list):
        space_sum = sum(d.space for d in disk_list)
        quota = {d.disk_id: int(round(total * d.space / space_sum)) for d in disk_list}
    else:
        base, extra = divmod(total, len(disk_list))
        quota = {d: base + (1 if i < extra else 0) for i, d in enumerate(ids)}
    # Fix rounding drift.
    drift = total - sum(quota.values())
    for disk_id in ids:
        if drift == 0:
            break
        step = 1 if drift > 0 else -1
        quota[disk_id] += step
        drift -= step

    layout = Layout()
    overflow: List[ItemId] = []
    filled: Dict[DiskId, int] = {d: 0 for d in ids}
    surviving = set(ids)
    for item_id in sorted(current.items, key=repr):
        disk_id = current.disk_of(item_id)
        if disk_id in surviving and filled[disk_id] < quota[disk_id]:
            layout.place(item_id, disk_id)
            filled[disk_id] += 1
        else:
            overflow.append(item_id)
    targets = iter(
        [d for d in ids for _ in range(quota[d] - filled[d])]
    )
    for item_id in overflow:
        layout.place(item_id, next(targets))
    return layout
