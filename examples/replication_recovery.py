#!/usr/bin/env python
"""Failure recovery on a replicated, rack-aware cluster.

Builds a 2-way-replicated cluster across three racks, kills a disk,
plans the re-replication copies as a migration instance, and compares
how fast each scheduler restores full redundancy — the window during
which a second failure would lose data.

Run:  python examples/replication_recovery.py
"""

from repro import plan
from repro.analysis.gantt import render_gantt
from repro.cluster.disk import Disk
from repro.cluster.item import DataItem
from repro.cluster.network import FabricTopology
from repro.cluster.replication import (
    place_replicated,
    recovery_moves,
    validate_replication,
)
from repro.core.lower_bounds import lower_bound


def main() -> None:
    disks = [
        Disk(disk_id=f"d{i}", transfer_limit=(4 if i % 3 == 0 else 1))
        for i in range(9)
    ]
    topology = FabricTopology.striped(
        [d.disk_id for d in disks], racks=3, uplink_bandwidth=8.0
    )
    items = {f"obj{k}": DataItem(item_id=f"obj{k}") for k in range(240)}
    # seed: randomized replica partners spread a failed disk's recovery
    # sources over the whole fleet (try seed=None to see recovery
    # serialize behind a single partner disk).
    layout = place_replicated(items, disks, replicas=2, topology=topology, seed=7)
    validate_replication(layout, 2, topology, racks_available=3)
    print("cluster: 9 disks / 3 racks, 240 objects x 2 replicas")

    failed = "d0"
    survivors = [d for d in disks if d.disk_id != failed]
    recovery = recovery_moves(layout, failed, survivors, topology=topology)
    print(f"\ndisk {failed} failed: {len(recovery.degraded_items)} objects degraded, "
          f"{recovery.num_copies} copies to make")
    print(f"re-replication lower bound: {lower_bound(recovery.instance)} rounds")

    for method in ("auto", "greedy", "homogeneous"):
        sched = plan(recovery.instance, method=method).schedule
        print(f"  {method:12s}: {sched.num_rounds} rounds")

    sched = plan(recovery.instance).schedule
    print("\nper-disk transfer lanes during recovery (auto schedule):")
    print(render_gantt(recovery.instance, sched, max_rounds=30))
    validate_replication(layout, 2)  # redundancy restored in the layout
    print("\nreplication invariants hold after recovery planning.")


if __name__ == "__main__":
    main()
