#!/usr/bin/env python
"""Disk removal with a mid-migration failure and replanning.

Drains three retiring disks, then injects a failure: one of the
*receiving* disks crashes right after the first round.  The executor
replans the surviving moves (re-targeting items that were headed to the
dead disk) and finishes the drain, reporting what was delivered,
re-planned and stranded — the disk-removal/recovery story of the
paper's introduction made concrete.

Run:  python examples/failure_drain.py
"""

from repro import plan
from repro.cluster.events import DiskRemoved, MigrationReplanned
from repro.cluster.network import UnitRates
from repro.runtime import DiskCrash, FaultPlan, MigrationExecutor
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

    # Under unit rates round 0 ends at t=1, when the crash lands.
    report = MigrationExecutor(
        scenario.cluster,
        scenario.context,
        schedule,
        faults=FaultPlan(crashes=(DiskCrash(victim, 1.0),)),
        rate_model=UnitRates(),
    ).run()

    print(f"\nreplans: {report.replans}")
    for event in report.log.of_type(DiskRemoved):
        print(f"  t={event.time:.1f}: disk {event.disk_id!r} removed")
    for event in report.log.of_type(MigrationReplanned):
        print(f"  t={event.time:.1f}: replanned ({event.remaining_items} moves left) "
              f"because {event.reason}")

    print(f"\ndelivered {len(report.delivered)} of {instance.num_items} items in "
          f"{report.rounds_executed} rounds, total time {report.total_time:.1f}")
    # Conservation: every move is delivered or stranded, none vanish.
    assert len(report.delivered) + len(report.stranded) == instance.num_items
    if report.stranded:
        print(f"stranded (source died before drain): {sorted(report.stranded)}")
    else:
        print("no items stranded — the drain completed despite the failure")


if __name__ == "__main__":
    main()
