"""Tests for the service-degradation model."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.service import compare_degradation, disk_demand, service_degradation
from repro.cluster.system import StorageCluster
from repro.workloads.scenarios import vod_rebalance_scenario


def loaded_cluster():
    disks = [Disk(disk_id=f"d{i}", transfer_limit=2) for i in range(3)]
    items = [
        DataItem(item_id="hot", demand=10.0),
        DataItem(item_id="warm", demand=2.0),
        DataItem(item_id="cold", demand=0.5),
    ]
    layout = Layout({"hot": "d0", "warm": "d0", "cold": "d1"})
    return StorageCluster(disks=disks, items=items, layout=layout)


class TestDiskDemand:
    def test_sums_resident_demand(self):
        cluster = loaded_cluster()
        demand = disk_demand(cluster)
        assert demand["d0"] == pytest.approx(12.0)
        assert demand["d1"] == pytest.approx(0.5)
        assert demand["d2"] == 0.0


class TestDegradation:
    def test_empty_schedule_no_degradation(self):
        cluster = loaded_cluster()
        ctx = cluster.migration_to(cluster.layout.copy())
        sched = plan(ctx.instance).schedule
        report = service_degradation(cluster, ctx, sched)
        assert report.total == 0.0
        assert report.duration == 0.0

    def test_busy_hot_disk_dominates(self):
        cluster = loaded_cluster()
        target = cluster.layout.copy()
        target.place("warm", "d2")  # move off the hot disk
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = service_degradation(cluster, ctx, sched)
        # d0 hosts all the demand; d2 (the target) hosts none.
        assert report.per_disk["d0"] > 0.0
        assert report.per_disk.get("d2", 0.0) == 0.0
        assert report.interference == pytest.approx(sum(report.per_disk.values()))
        # Moving the warm item displaces its demand for one round.
        assert report.displacement == pytest.approx(2.0 * report.duration)

    def test_degradation_scales_with_utilization(self):
        cluster = loaded_cluster()
        target = cluster.layout.copy()
        target.place("warm", "d2")
        target.place("cold", "d2")
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        # Utilization term is load/c_v <= 1, so impairment per disk
        # can never exceed duration * demand.
        report = service_degradation(cluster, ctx, sched)
        demand = disk_demand(cluster)
        for disk_id, hit in report.per_disk.items():
            assert hit <= report.duration * demand[disk_id] + 1e-9

    def test_cluster_not_mutated(self):
        cluster = loaded_cluster()
        target = cluster.layout.copy()
        target.place("warm", "d2")
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        before = cluster.layout.as_dict()
        service_degradation(cluster, ctx, sched)
        assert cluster.layout.as_dict() == before


class TestCompare:
    def test_better_scheduler_less_degradation(self):
        scenario = vod_rebalance_scenario(num_disks=10, num_items=300, seed=8)
        schedules = {
            "auto": plan(scenario.instance).schedule,
            "homogeneous": plan(scenario.instance, method="homogeneous").schedule,
        }
        reports = compare_degradation(scenario.cluster, scenario.context, schedules)
        assert reports["auto"].total <= reports["homogeneous"].total
