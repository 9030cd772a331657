"""EXP-QOS — client-visible degradation by scheduler.

The business version of the makespan objective: while migrating, items
are served from wrong locations (displacement) and disks burn transfer
lanes (interference).  The table compares schedulers on the summed
degradation integral over the VoD scenario — the heterogeneity-aware
schedule minimizes the displacement term by finishing fastest.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.cluster.service import compare_degradation
from repro.workloads.scenarios import vod_rebalance_scenario


def test_qos_scheduler_comparison(benchmark):
    table = Table(
        "EXP-QOS: degradation integral (displacement + interference), VoD scenario",
        ["method", "rounds", "duration", "displacement", "interference", "total"],
    )
    scenario = vod_rebalance_scenario(num_disks=12, num_items=400, seed=19)
    schedules = {
        method: plan(scenario.instance, method=method).schedule
        for method in ("auto", "saia", "greedy", "homogeneous")
    }
    reports = compare_degradation(scenario.cluster, scenario.context, schedules)
    for method in ("auto", "saia", "greedy", "homogeneous"):
        rep = reports[method]
        table.add_row(
            method, schedules[method].num_rounds, rep.duration,
            rep.displacement, rep.interference, rep.total,
        )
    emit(table)
    assert reports["auto"].total <= reports["homogeneous"].total

    benchmark(
        compare_degradation, scenario.cluster, scenario.context,
        {"auto": schedules["auto"]},
    )


def test_qos_displacement_dominates_for_hot_data(benchmark):
    """Hot items make finishing fast matter more than being gentle."""
    scenario = vod_rebalance_scenario(num_disks=10, num_items=300, alpha=1.2, seed=23)
    schedules = {
        "auto": plan(scenario.instance).schedule,
        "homogeneous": plan(scenario.instance, method="homogeneous").schedule,
    }
    reports = compare_degradation(scenario.cluster, scenario.context, schedules)
    table = Table(
        "EXP-QOSb: Zipf(1.2) hot catalog — displacement vs interference",
        ["method", "displacement", "interference", "displacement share"],
    )
    for method, rep in reports.items():
        share = rep.displacement / rep.total if rep.total else 0.0
        table.add_row(method, rep.displacement, rep.interference, share)
    emit(table)
    assert reports["auto"].displacement < reports["homogeneous"].displacement

    benchmark(
        compare_degradation, scenario.cluster, scenario.context,
        {"auto": schedules["auto"]},
    )
