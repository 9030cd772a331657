"""The storage cluster: disks, items, layout, and migration planning.

:class:`StorageCluster` ties the simulator together: it owns the disk
fleet and the current layout, turns "move to this target layout" into a
:class:`~repro.core.problem.MigrationInstance` (the paper's transfer
graph), and remembers which transfer-graph edge is which data item so
the engine can execute schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cluster.disk import Disk, DiskId
from repro.cluster.item import DataItem, ItemId
from repro.cluster.layout import Layout
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId, Multigraph


@dataclass
class MigrationPlanContext:
    """A migration instance plus the item behind every edge."""

    instance: MigrationInstance
    target: Layout
    edge_items: Dict[EdgeId, ItemId]

    @property
    def num_moves(self) -> int:
        return len(self.edge_items)


class StorageCluster:
    """A fleet of disks with a current data layout."""

    def __init__(
        self,
        disks: Iterable[Disk] = (),
        items: Iterable[DataItem] = (),
        layout: Optional[Layout] = None,
    ):
        self._disks: Dict[DiskId, Disk] = {}
        self._items: Dict[ItemId, DataItem] = {}
        for d in disks:
            self.add_disk(d)
        for item in items:
            self.add_item(item)
        self.layout = layout.copy() if layout is not None else Layout()
        for item_id in self.layout.items:
            self._check_placement(item_id)

    # ------------------------------------------------------------------
    # fleet management
    # ------------------------------------------------------------------
    def add_disk(self, disk: Disk) -> None:
        if disk.disk_id in self._disks:
            raise ValueError(f"duplicate disk id {disk.disk_id!r}")
        self._disks[disk.disk_id] = disk

    def remove_disk(self, disk_id: DiskId) -> List[ItemId]:
        """Remove a disk from the fleet; returns the items stranded on it.

        The items stay in the layout (still marked as on the removed
        disk) until a migration drains them — exactly the disk-removal
        scenario: plan a migration whose target avoids the disk.
        """
        if disk_id not in self._disks:
            raise KeyError(f"unknown disk {disk_id!r}")
        del self._disks[disk_id]
        return self.layout.items_on(disk_id)

    def add_item(self, item: DataItem, on_disk: Optional[DiskId] = None) -> None:
        if item.item_id in self._items:
            raise ValueError(f"duplicate item id {item.item_id!r}")
        self._items[item.item_id] = item
        if on_disk is not None:
            self.layout.place(item.item_id, on_disk)
            self._check_placement(item.item_id)

    def _check_placement(self, item_id: ItemId) -> None:
        disk_id = self.layout.disk_of(item_id)
        if disk_id not in self._disks:
            raise ValueError(f"item {item_id!r} placed on unknown disk {disk_id!r}")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def disks(self) -> Dict[DiskId, Disk]:
        return dict(self._disks)

    @property
    def items(self) -> Dict[ItemId, DataItem]:
        return dict(self._items)

    def disk(self, disk_id: DiskId) -> Disk:
        return self._disks[disk_id]

    def transfer_constraints(self) -> Dict[DiskId, int]:
        """``c_v`` per disk — the heterogeneity vector."""
        return {d.disk_id: d.transfer_limit for d in self._disks.values()}

    def space_used(self) -> Dict[DiskId, float]:
        used: Dict[DiskId, float] = {d: 0.0 for d in self._disks}
        for item_id in self.layout.items:
            disk_id = self.layout.disk_of(item_id)
            if disk_id in used:
                used[disk_id] += self._items[item_id].size
        return used

    # ------------------------------------------------------------------
    # migration planning
    # ------------------------------------------------------------------
    def migration_to(self, target: Layout) -> MigrationPlanContext:
        """Build the transfer graph for migrating to ``target``.

        Nodes are all current disks (sources of stranded items that no
        longer exist in the fleet raise — drain before removal, or use
        :meth:`remove_disk` then plan with the removed disk still as a
        source via ``extra_sources``).
        """
        graph = Multigraph()
        for disk_id in self._disks:
            graph.add_node(disk_id)
        edge_items: Dict[EdgeId, ItemId] = {}
        for item_id, src, dst in self.layout.moves_to(target):
            if dst not in self._disks:
                raise ValueError(f"target disk {dst!r} not in fleet")
            if src not in self._disks:
                raise ValueError(
                    f"source disk {src!r} of item {item_id!r} not in fleet; "
                    "include it until the drain completes"
                )
            eid = graph.add_edge(src, dst)
            edge_items[eid] = item_id
        instance = MigrationInstance(graph, self.transfer_constraints())
        return MigrationPlanContext(instance=instance, target=target, edge_items=edge_items)

    def apply_move(self, item_id: ItemId, dst: DiskId) -> None:
        """Commit one migrated item to the layout."""
        if dst not in self._disks:
            raise ValueError(f"cannot move {item_id!r} to unknown disk {dst!r}")
        self.layout.place(item_id, dst)

    def __repr__(self) -> str:
        return (
            f"StorageCluster(disks={len(self._disks)}, items={len(self._items)}, "
            f"placed={len(self.layout)})"
        )
