"""EXP-SIM — end-to-end cluster scenarios through the simulator.

The paper's introduction motivates migration with load-balancing
reconfiguration and disk addition/removal.  This bench runs those
scenarios through the full pipeline (layout diff → transfer graph →
scheduler → bandwidth-splitting engine) and compares simulated
migration *time* (not just rounds) across schedulers — the end-to-end
version of the Figure 2 claim.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.cluster.engine import MigrationEngine
from repro.workloads.scenarios import (
    decommission_scenario,
    scale_out_scenario,
    vod_rebalance_scenario,
)

SCENARIOS = [
    ("vod_rebalance", vod_rebalance_scenario),
    ("scale_out", scale_out_scenario),
    ("decommission", decommission_scenario),
]


def run_scenario(builder, method: str, seed: int = 11) -> tuple:
    scenario = builder(seed=seed)
    sched = plan(scenario.instance, method=method).schedule
    engine = MigrationEngine(scenario.cluster)  # bandwidth_split
    report = engine.execute(scenario.context, sched)
    return sched.num_rounds, report.total_time, scenario.instance.num_items


def test_sim_scenarios_by_method(benchmark):
    table = Table(
        "EXP-SIM: simulated migration time by scenario and scheduler "
        "(bandwidth-splitting model)",
        ["scenario", "moves", "auto rounds", "auto time", "homogeneous time", "speedup"],
    )
    for name, builder in SCENARIOS:
        auto_rounds, auto_time, moves = run_scenario(builder, "auto")
        _h_rounds, homo_time, _ = run_scenario(builder, "homogeneous")
        table.add_row(name, moves, auto_rounds, auto_time, homo_time, homo_time / auto_time)
        assert auto_time <= homo_time + 1e-9
    emit(table)

    benchmark(run_scenario, vod_rebalance_scenario, "auto")


def test_sim_failure_replan(benchmark):
    """Failure injection: replanning finishes the drain."""

    def kernel():
        scenario = scale_out_scenario(num_old=6, num_new=3, items_per_old_disk=25, seed=13)
        sched = plan(scenario.instance).schedule
        engine = MigrationEngine(scenario.cluster, time_model="unit")
        return engine.execute_with_replan(
            scenario.context,
            sched,
            fail_after_round=0,
            failed_disk="new2",
            planner=lambda inst: plan(inst).schedule,
        )

    report = kernel()
    table = Table(
        "EXP-SIMb: disk failure after round 0 + replan",
        ["migrated", "stranded", "replans", "rounds executed", "total time"],
    )
    table.add_row(
        len(report.migrated_items), len(report.stranded_items),
        report.replans, report.rounds_executed, report.total_time,
    )
    emit(table)
    assert report.replans == 1

    benchmark(kernel)
