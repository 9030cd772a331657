#!/usr/bin/env python
"""Load-balancing reconfiguration on a VoD cluster (paper Section I).

A video-on-demand cluster balances Zipf-skewed demand across a
heterogeneous fleet.  Overnight the popularity ranking shifts; the
demand-balanced layout changes and data must migrate.  This example
runs the whole pipeline — layout diff, transfer graph, scheduler,
bandwidth-splitting execution — and compares the heterogeneity-aware
schedule with the classic one-transfer-per-disk model.

Run:  python examples/load_rebalance.py
"""

from repro import plan
from repro.analysis.metrics import schedule_quality
from repro.cluster.engine import MigrationEngine
from repro.workloads.scenarios import vod_rebalance_scenario


def main() -> None:
    scenario = vod_rebalance_scenario(num_disks=12, num_items=400, alpha=0.9, seed=7)
    instance = scenario.instance
    caps = sorted(set(instance.capacities.values()))
    print(f"cluster: {instance.num_disks} disks, transfer constraints {caps}")
    print(f"demand shift requires moving {instance.num_items} of 400 videos\n")

    # Heterogeneity-aware schedule (the paper's algorithms).
    schedule = plan(instance).schedule
    quality = schedule_quality(instance, schedule)
    print(f"heterogeneous schedule ({schedule.method}): "
          f"{schedule.num_rounds} rounds "
          f"(lower bound {quality.lower_bound}, ratio {quality.ratio:.3f})")

    report = MigrationEngine(scenario.cluster).execute(scenario.context, schedule)
    print(f"simulated wall-clock (bandwidth splitting): {report.total_time:.1f} time units")

    # What prior homogeneous-model work would do on the same cluster.
    homo_scenario = vod_rebalance_scenario(num_disks=12, num_items=400, alpha=0.9, seed=7)
    homo = plan(homo_scenario.instance, method="homogeneous").schedule
    homo_report = MigrationEngine(homo_scenario.cluster).execute(
        homo_scenario.context, homo
    )
    print(f"\nhomogeneous baseline: {homo.num_rounds} rounds, "
          f"{homo_report.total_time:.1f} time units")
    print(f"speedup from modeling heterogeneity: "
          f"{homo_report.total_time / report.total_time:.2f}x")


if __name__ == "__main__":
    main()
