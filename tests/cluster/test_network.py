"""Tests for rate models and the rack fabric."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.engine import MigrationEngine
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.network import (
    FabricRates,
    FabricTopology,
    FairShareRates,
    ReservedLaneRates,
    rack_locality,
)
from repro.cluster.system import StorageCluster


def two_disk_plan(bandwidth_a=1.0, bandwidth_b=1.0, limit=2, items=2):
    disks = [
        Disk(disk_id="a", transfer_limit=limit, bandwidth=bandwidth_a),
        Disk(disk_id="b", transfer_limit=limit, bandwidth=bandwidth_b),
    ]
    objs = [DataItem(item_id=f"i{k}") for k in range(items)]
    layout = Layout({f"i{k}": "a" for k in range(items)})
    target = Layout({f"i{k}": "b" for k in range(items)})
    cluster = StorageCluster(disks=disks, items=objs, layout=layout)
    ctx = cluster.migration_to(target)
    return cluster, ctx


class TestFairShare:
    def test_splits_over_actual_concurrency(self):
        cluster, ctx = two_disk_plan(items=2, limit=2)
        edges = list(ctx.edge_items)
        model = FairShareRates()
        # Two concurrent transfers: each gets bandwidth/2 -> duration 2.
        assert model.round_duration(cluster, ctx, edges) == pytest.approx(2.0)
        # Single transfer: full bandwidth -> duration 1.
        assert model.round_duration(cluster, ctx, edges[:1]) == pytest.approx(1.0)

    def test_empty_round(self):
        cluster, ctx = two_disk_plan()
        assert FairShareRates().round_duration(cluster, ctx, []) == 0.0


class TestReservedLane:
    def test_static_lanes_ignore_concurrency(self):
        cluster, ctx = two_disk_plan(items=2, limit=2)
        edges = list(ctx.edge_items)
        model = ReservedLaneRates()
        # Lanes are bandwidth/c = 0.5 regardless of use.
        assert model.round_duration(cluster, ctx, edges[:1]) == pytest.approx(2.0)
        assert model.round_duration(cluster, ctx, edges) == pytest.approx(2.0)


class TestFabric:
    def build_cross_rack_plan(self, uplink):
        disks = [
            Disk(disk_id=f"d{i}", transfer_limit=4, bandwidth=8.0) for i in range(4)
        ]
        topo = FabricTopology.striped([d.disk_id for d in disks], racks=2,
                                      uplink_bandwidth=uplink)
        items = [DataItem(item_id=f"i{k}") for k in range(4)]
        # d0, d2 in rack0; d1, d3 in rack1 (striped by sorted name).
        layout = Layout({f"i{k}": "d0" for k in range(4)})
        target = Layout({f"i{k}": "d1" for k in range(4)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        return cluster, cluster.migration_to(target), topo

    def test_uplink_throttles_cross_rack(self):
        cluster, ctx, topo = self.build_cross_rack_plan(uplink=1.0)
        edges = list(ctx.edge_items)
        fabric = FabricRates(topo)
        plain = FairShareRates()
        assert fabric.round_duration(cluster, ctx, edges) > plain.round_duration(
            cluster, ctx, edges
        )

    def test_generous_uplink_is_transparent(self):
        cluster, ctx, topo = self.build_cross_rack_plan(uplink=1000.0)
        edges = list(ctx.edge_items)
        fabric = FabricRates(topo)
        plain = FairShareRates()
        assert fabric.round_duration(cluster, ctx, edges) == pytest.approx(
            plain.round_duration(cluster, ctx, edges)
        )

    def test_intra_rack_unaffected(self):
        disks = [Disk(disk_id=d, transfer_limit=1, bandwidth=1.0) for d in ("d0", "d1")]
        topo = FabricTopology(rack_of={"d0": "r0", "d1": "r0"}, uplink_bandwidth=0.01)
        item = DataItem(item_id="x")
        cluster = StorageCluster(disks=disks, items=[item], layout=Layout({"x": "d0"}))
        ctx = cluster.migration_to(Layout({"x": "d1"}))
        fabric = FabricRates(topo)
        assert fabric.round_duration(cluster, ctx, list(ctx.edge_items)) == pytest.approx(1.0)

    def test_rack_locality_metric(self):
        cluster, ctx, topo = self.build_cross_rack_plan(uplink=1.0)
        assert rack_locality(ctx, topo) == 0.0
        empty_ctx = cluster.migration_to(cluster.layout.copy())
        assert rack_locality(empty_ctx, topo) == 1.0


class TestEngineIntegration:
    def test_engine_accepts_rate_model(self):
        cluster, ctx = two_disk_plan(items=4, limit=2)
        sched = plan(ctx.instance).schedule
        engine = MigrationEngine(cluster, rate_model=ReservedLaneRates())
        report = engine.execute(ctx, sched)
        # 4 items, 2 lanes of 0.5 each: 2 rounds x 2 time units.
        assert report.total_time == pytest.approx(4.0)

    def test_default_matches_fair_share(self):
        cluster1, ctx1 = two_disk_plan(items=4, limit=2)
        sched1 = plan(ctx1.instance).schedule
        t_default = MigrationEngine(cluster1).execute(ctx1, sched1).total_time

        cluster2, ctx2 = two_disk_plan(items=4, limit=2)
        sched2 = plan(ctx2.instance).schedule
        t_fair = MigrationEngine(cluster2, rate_model=FairShareRates()).execute(
            ctx2, sched2
        ).total_time
        assert t_default == pytest.approx(t_fair)
