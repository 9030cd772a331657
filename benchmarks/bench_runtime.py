"""EXP-RUN — runtime supervision: fault rate vs. completion time.

The paper's premise is that migrations execute while the system is
degraded; the runtime layer (``repro.runtime``) is where that finally
happens.  This experiment sweeps the per-transfer fault rate on a
decommission drain and reports the cost of supervision: extra rounds
(retries re-occupy transfer slots), simulated completion time, retry
and replan counts.  A second table kills a disk mid-run and compares
outcomes across schedulers, exercising the escalation ladder's replan
rung end to end.

Both tables assert the conservation invariant the property suite pins:
every planned move is delivered or explicitly stranded — supervision
never loses items silently.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.runtime import DiskCrash, FaultPlan, MigrationExecutor, RetryPolicy
from repro.workloads.scenarios import decommission_scenario, scale_out_scenario


def _run(scenario_fn, seed, faults, method="auto"):
    scenario = scenario_fn(seed=seed)
    schedule = plan(scenario.instance, method=method, seed=seed).schedule
    executor = MigrationExecutor(
        scenario.cluster,
        scenario.context,
        schedule,
        faults=faults,
        method=method,
        seed=seed,
    )
    planned = scenario.context.num_moves
    report = executor.run()
    assert report.finished
    assert len(report.delivered) + len(report.stranded) == planned
    return schedule, report


def test_run_fault_rate_sweep(benchmark):
    table = Table(
        "EXP-RUN: fault-rate sweep on the decommission drain "
        "(retry ladder: 3 retries, 1 defer, then replan)",
        ["fault rate", "planned rounds", "executed rounds", "sim time",
         "retries", "replans", "stranded"],
    )
    baseline_rounds = None
    for rate in (0.0, 0.05, 0.1, 0.2, 0.3):
        schedule, report = _run(
            decommission_scenario, 11, FaultPlan(transfer_failure_rate=rate)
        )
        counters = report.telemetry.counters
        table.add_row(
            f"{rate:.2f}",
            schedule.num_rounds,
            report.rounds_executed,
            f"{report.total_time:.1f}",
            counters.get("retries", 0),
            report.replans,
            len(report.stranded),
        )
        if baseline_rounds is None:
            baseline_rounds = report.rounds_executed
            assert baseline_rounds == schedule.num_rounds
        # Supervision can only add work, never lose it.
        assert report.rounds_executed >= schedule.num_rounds
        assert not report.stranded
    emit(table)

    benchmark(
        lambda: _run(
            decommission_scenario, 11, FaultPlan(transfer_failure_rate=0.1)
        )
    )


def test_run_crash_replan_by_scheduler():
    table = Table(
        "EXP-RUNb: disk crash at t=4 during scale-out, by scheduler "
        "(crash strands sourced items, retargets in-flight destinations)",
        ["method", "executed rounds", "sim time", "replans", "delivered",
         "stranded"],
    )
    crash = FaultPlan(crashes=(DiskCrash("new0", 4.0),))
    for method in ("auto", "greedy", "homogeneous"):
        _schedule, report = _run(scale_out_scenario, 5, crash, method=method)
        table.add_row(
            method,
            report.rounds_executed,
            f"{report.total_time:.1f}",
            report.replans,
            len(report.delivered),
            len(report.stranded),
        )
        assert report.finished
    emit(table)
