"""EXP-SIM2 — failure-and-recovery campaign throughput and durability.

The closed-loop simulator (:mod:`repro.sim`) drives the staged planner
with a continuous stream of repair instances.  This bench measures

* campaign throughput — simulator events processed per wall-clock
  second, and the share of wall time spent inside ``repro.plan`` (the
  planner is on the sim's critical path, so its share bounds how much
  the PlanCache can help);
* repair makespan and durability across the three placement policies
  (the paper's scheduling quality, observed through recovery speed);
* the EXP-SIM end-to-end scenario numbers from
  :mod:`benchmarks.bench_sim_cluster`, folded in so one file tracks
  every simulator-level metric.

Each run appends one commit-keyed entry to ``BENCH_SIM.json`` at the
repo root (a clean commit refreshes its own entry; see
``benchmarks.conftest.append_bench_entry``), so the numbers accrete
per PR.
Run standalone with ``python -m benchmarks.bench_sim``.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict

from benchmarks.conftest import append_bench_entry, emit
from repro.analysis.tables import Table
from repro.obs import names
from repro.sim import (
    DEFAULT_POLICY_SPECS,
    SimConfig,
    SimEngine,
    compare_policies,
)

import repro.sim.engine as sim_engine

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_SIM.json"
BENCH_SCHEMA = "bench-sim/v1"

#: The throughput campaign: busy enough to exercise repairs, small
#: enough to finish in well under a second.
CAMPAIGN = dict(duration=2000.0, items=200, seed=7, failure_rate=0.002)

#: The policy-comparison campaign: same failure process per policy.
POLICY_CAMPAIGN = dict(duration=1500.0, items=150, seed=11, failure_rate=0.002)


def timed_campaign(config: SimConfig):
    """Run a campaign, timing total wall and planner wall separately.

    The engine's *modeled* planner latency is simulated time; here we
    measure real time by shimming the ``plan`` call the engine makes.
    """
    spent = {"plan": 0.0}
    real_plan = sim_engine.plan

    def shim(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real_plan(*args, **kwargs)
        finally:
            spent["plan"] += time.perf_counter() - start

    sim_engine.plan = shim
    start = time.perf_counter()
    try:
        engine = SimEngine(config).run()
    finally:
        sim_engine.plan = real_plan
    wall = time.perf_counter() - start
    return engine, wall, spent["plan"]


def collect_metrics() -> Dict[str, object]:
    """One BENCH_SIM.json metrics payload."""
    engine, wall, plan_wall = timed_campaign(SimConfig(**CAMPAIGN))
    events = engine.metrics.counters.get(names.SIM_EVENTS, 0)
    throughput = {
        "events": events,
        "wall_seconds": round(wall, 4),
        "events_per_second": round(events / wall) if wall > 0 else 0,
        "planner_wall_seconds": round(plan_wall, 4),
        "planner_share": round(plan_wall / wall, 4) if wall > 0 else 0.0,
        "incidents": len(engine.incidents),
        "plan_components_cached": engine.metrics.counters.get(
            names.SIM_PLAN_COMPONENTS_CACHED, 0
        ),
    }

    policies: Dict[str, object] = {}
    reports = compare_policies(SimConfig(**POLICY_CAMPAIGN), DEFAULT_POLICY_SPECS)
    for name in sorted(reports):
        summary = reports[name].summary
        policies[name] = {
            "mean_repair_makespan": summary["mean_repair_makespan"],
            "max_repair_makespan": summary["max_repair_makespan"],
            "data_loss_events": summary["data_loss_events"],
            "under_replicated_item_time": summary["under_replicated_item_time"],
            "repair_bytes": summary["repair_bytes"],
        }

    # Fold in the EXP-SIM cluster-scenario numbers so BENCH_SIM.json is
    # the single simulator-metric record.
    from benchmarks.bench_sim_cluster import SCENARIOS, run_scenario

    scenarios: Dict[str, object] = {}
    for name, builder in SCENARIOS:
        auto_rounds, auto_time, moves = run_scenario(builder, "auto")
        _rounds, homo_time, _moves = run_scenario(builder, "homogeneous")
        scenarios[name] = {
            "moves": moves,
            "auto_rounds": auto_rounds,
            "auto_time": round(auto_time, 4),
            "homogeneous_time": round(homo_time, 4),
        }

    return {
        "campaign": throughput,
        "policies": policies,
        "cluster_scenarios": scenarios,
    }


def test_sim_campaign_metrics(benchmark):
    metrics = collect_metrics()
    campaign = metrics["campaign"]

    table = Table(
        "EXP-SIM2: failure-and-recovery campaign throughput",
        ["events", "wall (s)", "events/s", "planner share", "incidents", "cached"],
    )
    table.add_row(
        campaign["events"], campaign["wall_seconds"],
        campaign["events_per_second"], campaign["planner_share"],
        campaign["incidents"], campaign["plan_components_cached"],
    )
    emit(table)

    policy = Table(
        "EXP-SIM2b: durability and repair speed by placement policy",
        ["policy", "mean makespan", "max makespan", "loss events", "exposure"],
    )
    for name, row in metrics["policies"].items():
        policy.add_row(
            name, row["mean_repair_makespan"], row["max_repair_makespan"],
            row["data_loss_events"], row["under_replicated_item_time"],
        )
    emit(policy)

    append_bench_entry(BENCH_FILE, BENCH_SCHEMA, metrics)
    assert campaign["incidents"] > 0
    assert campaign["planner_share"] < 1.0

    benchmark(lambda: SimEngine(SimConfig(**CAMPAIGN)).run())


def main() -> int:
    entry = append_bench_entry(BENCH_FILE, BENCH_SCHEMA, collect_metrics())
    print(json.dumps(entry, indent=2, sort_keys=True))
    print(f"appended to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
