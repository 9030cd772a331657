"""Executor ↔ pipeline integration: cached replans after disk crashes.

The executor carries an optional :class:`PlanCache`; when a crash
triggers a replan, components of the residual transfer graph that the
crash did not touch should be served from cache rather than re-solved.
The ``replan_components_solved`` / ``replan_components_cached``
telemetry counters make that observable.
"""

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster
from repro.pipeline import PlanCache
from repro.runtime import DiskCrash, FaultPlan, MigrationExecutor


def two_component_cluster():
    """Component A (z0→z1, 4 items) and component B (a0→a1, 2 items).

    Disk names are chosen so that, sorted by repr, the spare disk
    ``a3`` absorbs retargeted items before any ``z`` disk — crashes of
    ``a1``/``a2`` then stay inside B's side of the name space and
    component A's residual instance is untouched by the replan.
    """
    disks = [
        Disk(disk_id="a0", transfer_limit=1),
        Disk(disk_id="a1", transfer_limit=1),
        Disk(disk_id="a2", transfer_limit=1),
        Disk(disk_id="a3", transfer_limit=1),
        Disk(disk_id="z0", transfer_limit=1),
        Disk(disk_id="z1", transfer_limit=1),
    ]
    items = [DataItem(item_id=f"b{k}") for k in range(2)] + [
        DataItem(item_id=f"y{k}") for k in range(4)
    ]
    layout = Layout({"b0": "a0", "b1": "a0", **{f"y{k}": "z0" for k in range(4)}})
    target = Layout({"b0": "a1", "b1": "a1", **{f"y{k}": "z1" for k in range(4)}})
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    return cluster, cluster.migration_to(target)


def run_with_crashes(plan_cache):
    cluster, ctx = two_component_cluster()
    schedule = plan(ctx.instance).schedule
    faults = FaultPlan(
        crashes=(
            DiskCrash(disk_id="a1", at_time=1.0),
            DiskCrash(disk_id="a2", at_time=1.0),
        )
    )
    ex = MigrationExecutor(
        cluster, ctx, schedule,
        faults=faults, time_model="unit", cache=plan_cache,
    )
    report = ex.run()
    assert report.finished
    return report


def test_double_crash_reuses_untouched_component():
    """Two same-time crashes ⇒ two replans back to back; the second
    replan re-solves only the component the second crash changed."""
    report = run_with_crashes(PlanCache())
    counters = report.telemetry.counters
    assert report.replans == 2
    assert counters.get("replan_components_cached", 0) >= 1
    # The cached replan never re-solved both components.
    assert counters["replan_components_solved"] < 2 * report.replans


def test_without_cache_every_component_is_resolved():
    report = run_with_crashes(None)
    counters = report.telemetry.counters
    assert report.replans == 2
    assert counters.get("replan_components_cached", 0) == 0


def test_cache_does_not_change_outcome():
    cached = run_with_crashes(PlanCache())
    uncached = run_with_crashes(None)
    assert sorted(cached.delivered) == sorted(uncached.delivered)
    assert sorted(cached.stranded) == sorted(uncached.stranded)
    assert cached.total_time == uncached.total_time
    assert cached.rounds_executed == uncached.rounds_executed
