#!/usr/bin/env python
"""Disk removal with a mid-migration failure and replanning.

Drains three retiring disks, then injects a failure: one of the
*receiving* disks dies after the first round.  The engine replans the
surviving moves (re-targeting items that were headed to the dead disk)
and finishes the drain, reporting what was migrated, re-planned and
stranded — the disk-removal/recovery story of the paper's introduction
made concrete.

Run:  python examples/failure_drain.py
"""

from repro import plan
from repro.cluster.engine import MigrationEngine
from repro.cluster.events import DiskRemoved, MigrationReplanned
from repro.workloads.scenarios import decommission_scenario


def main() -> None:
    scenario = decommission_scenario(num_disks=10, num_retiring=3, items_per_disk=30, seed=2)
    instance = scenario.instance
    schedule = plan(instance).schedule
    print(f"decommission: {instance.num_items} items to drain off retiring disks")
    print(f"planned schedule: {schedule.num_rounds} rounds ({schedule.method})\n")

    # Pick a surviving disk that receives data and kill it after round 0.
    receivers = {
        str(instance.graph.endpoints(eid)[1]) for eid in instance.graph.edge_ids()
    }
    victim = sorted(d for d in receivers if not str(d).startswith("old"))[0]
    print(f"injecting failure: disk {victim!r} dies after round 0")

    engine = MigrationEngine(scenario.cluster, time_model="unit")
    report = engine.execute_with_replan(
        scenario.context,
        schedule,
        fail_after_round=0,
        failed_disk=victim,
        planner=lambda inst: plan(inst).schedule,
    )

    print(f"\nreplans: {report.replans}")
    for event in report.log.of_type(DiskRemoved):
        print(f"  t={event.time:.1f}: disk {event.disk_id!r} removed")
    for event in report.log.of_type(MigrationReplanned):
        print(f"  t={event.time:.1f}: replanned ({event.remaining_items} moves left) "
              f"because {event.reason}")

    print(f"\nmigrated {len(set(report.migrated_items))} items in "
          f"{report.rounds_executed} rounds, total time {report.total_time:.1f}")
    if report.stranded_items:
        print(f"stranded (source died before drain): {sorted(report.stranded_items)}")
    else:
        print("no items stranded — the drain completed despite the failure")


if __name__ == "__main__":
    main()
