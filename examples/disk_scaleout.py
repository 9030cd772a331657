#!/usr/bin/env python
"""Disk addition: spread data onto new high-capability hardware.

The second migration driver the paper names: disks get added (here,
four NVMe-class devices joining eight older disks) and data must
redistribute quickly so the cluster runs balanced.  Because the new
disks sustain four concurrent transfers each, the transfer graph is
strongly heterogeneous — exactly where this paper improves on
single-transfer scheduling.

Run:  python examples/disk_scaleout.py
"""

from repro import plan
from repro.analysis.metrics import compare_methods
from repro.analysis.tables import Table
from repro.runtime import MigrationExecutor
from repro.workloads.scenarios import scale_out_scenario


def main() -> None:
    scenario = scale_out_scenario(num_old=8, num_new=4, items_per_old_disk=40, seed=3)
    instance = scenario.instance
    print(f"scale-out: {instance.num_items} items move onto the 4 new disks")
    print(f"transfer constraints: old disks "
          f"{sorted(set(c for d, c in instance.capacities.items() if str(d).startswith('old')))}, "
          f"new disks "
          f"{sorted(set(c for d, c in instance.capacities.items() if str(d).startswith('new')))}\n")

    results = compare_methods(
        instance, methods=("general", "saia", "greedy", "homogeneous")
    )
    table = Table("scheduler comparison", ["method", "rounds", "ratio to LB"])
    for method, quality in sorted(results.items(), key=lambda kv: kv[1].rounds):
        table.add_row(method, quality.rounds, quality.ratio)
    print(table.render())

    schedule = plan(instance).schedule
    report = MigrationExecutor(scenario.cluster, scenario.context, schedule).run()
    print(f"\nexecuted {len(report.delivered)} transfers in "
          f"{schedule.num_rounds} rounds / {report.total_time:.1f} simulated time units")
    used = scenario.cluster.space_used()
    new_load = [int(used[d]) for d in sorted(used, key=str) if str(d).startswith("new")]
    print(f"items now on new disks: {new_load}")


if __name__ == "__main__":
    main()
