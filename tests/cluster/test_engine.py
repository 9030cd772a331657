"""Tests for executing schedules: rate models as the clock, crashes
and replans (``MigrationExecutor`` fault-free and with ``DiskCrash``)."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.events import ItemMigrated, MigrationReplanned, RoundCompleted
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.network import UnitRates
from repro.cluster.system import StorageCluster
from repro.runtime import DiskCrash, FaultPlan, MigrationExecutor


def figure2_cluster(items_per_pair: int, transfer_limit: int):
    """K3 cluster with M items to rotate around the triangle."""
    disks = [
        Disk(disk_id=d, transfer_limit=transfer_limit, bandwidth=1.0)
        for d in ("a", "b", "c")
    ]
    items = []
    layout = Layout()
    target = Layout()
    ring = {"a": "b", "b": "c", "c": "a"}
    for src, dst in ring.items():
        for k in range(items_per_pair):
            item = DataItem(item_id=f"{src}->{dst}/{k}")
            items.append(item)
            layout.place(item.item_id, src)
            target.place(item.item_id, dst)
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    return cluster, target


def crash_run(cluster, ctx, sched, disk, at_time=1.0):
    """Execute under unit rates with ``disk`` crashing at ``at_time``
    (the default lands right after round 0)."""
    return MigrationExecutor(
        cluster, ctx, sched,
        faults=FaultPlan(crashes=(DiskCrash(disk, at_time),)),
        rate_model=UnitRates(),
    ).run()


class TestTimeModels:
    def test_unit_model_counts_rounds(self):
        cluster, target = figure2_cluster(3, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched, rate_model=UnitRates()).run()
        assert report.total_time == sched.num_rounds

    def test_unit_rates_price_any_round_at_one(self):
        cluster, target = figure2_cluster(2, transfer_limit=2)
        ctx = cluster.migration_to(target)
        rates = UnitRates()
        assert rates.round_duration(cluster, ctx, list(ctx.edge_items)) == 1.0
        assert rates.round_duration(cluster, ctx, []) == 1.0

    def test_figure2_arithmetic_c1_vs_c2(self):
        """The paper's Figure 2: 3M time at c=1 vs 2M at c=2."""
        M = 4
        c1, t1 = figure2_cluster(M, transfer_limit=1)
        ctx1 = c1.migration_to(t1)
        s1 = plan(ctx1.instance).schedule
        r1 = MigrationExecutor(c1, ctx1, s1).run()
        assert r1.total_time == pytest.approx(3 * M)

        c2, t2 = figure2_cluster(M, transfer_limit=2)
        ctx2 = c2.migration_to(t2)
        s2 = plan(ctx2.instance).schedule
        r2 = MigrationExecutor(c2, ctx2, s2).run()
        assert r2.total_time == pytest.approx(2 * M)

    def test_bandwidth_split_slowest_transfer_rules(self):
        # One fast and one slow disk: the slow endpoint sets the pace.
        disks = [
            Disk(disk_id="slow", transfer_limit=1, bandwidth=0.5),
            Disk(disk_id="fast", transfer_limit=1, bandwidth=4.0),
        ]
        item = DataItem(item_id="x")
        cluster = StorageCluster(
            disks=disks, items=[item], layout=Layout({"x": "slow"})
        )
        ctx = cluster.migration_to(Layout({"x": "fast"}))
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched).run()
        assert report.total_time == pytest.approx(1.0 / 0.5)


class TestExecution:
    def test_layout_reaches_target(self):
        cluster, target = figure2_cluster(3, transfer_limit=2)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        MigrationExecutor(cluster, ctx, sched).run()
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_events_recorded(self):
        cluster, target = figure2_cluster(2, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched).run()
        migrations = report.log.of_type(ItemMigrated)
        assert len(migrations) == ctx.num_moves
        rounds = report.log.of_type(RoundCompleted)
        assert len(rounds) == sched.num_rounds

    def test_round_durations_sum_to_total(self):
        cluster, target = figure2_cluster(3, transfer_limit=2)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched).run()
        durations = [e.duration for e in report.log.of_type(RoundCompleted)]
        assert sum(durations) == pytest.approx(report.total_time)


class TestFailureInjection:
    def test_failure_reports_stranded_and_continues(self):
        cluster, target = figure2_cluster(4, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        assert sched.num_rounds > 2
        report = crash_run(cluster, ctx, sched, "a")
        assert "a" not in cluster.disks
        # Moves sourced on "a" are lost; the rest still finish.
        assert report.finished
        assert report.stranded
        assert all(cluster.layout.disk_of(i) == "a" for i in report.stranded)
        assert report.rounds_executed > 1
        assert len(report.delivered) + len(report.stranded) == ctx.num_moves

    def test_replan_finishes_surviving_moves(self):
        # Items flowing d0 -> d1/d2; d2 fails after round 0; moves that
        # targeted d2 are re-aimed at survivors and everything whose
        # source survives completes.
        disks = [Disk(disk_id=f"d{i}", transfer_limit=1) for i in range(3)]
        items = [DataItem(item_id=f"i{k}") for k in range(6)]
        layout = Layout({f"i{k}": "d0" for k in range(6)})
        target = Layout({f"i{k}": ("d1" if k % 2 else "d2") for k in range(6)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = crash_run(cluster, ctx, sched, "d2")
        assert report.replans == 1
        assert report.log.of_type(MigrationReplanned)
        # d2 was never a source, so nothing is lost: every item is
        # delivered, and an item moved to d2 before the crash stays
        # accounted for there.
        assert report.stranded == []
        assert sorted(report.delivered) == sorted(layout.items)
        for item_id in layout.items:
            disk = cluster.layout.disk_of(item_id)
            assert disk in ("d1", "d0", "d2")
        assert not any(
            cluster.layout.disk_of(i) == "d0" for i in report.delivered
        )

    def test_failure_on_last_round_needs_no_replan(self):
        """Nothing is pending after the final round: the disk failure
        costs nothing and no replan happens."""
        cluster, target = figure2_cluster(4, transfer_limit=1)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = crash_run(cluster, ctx, sched, "a", at_time=float(sched.num_rounds))
        assert report.replans == 0
        assert report.stranded == []
        assert len(report.delivered) == ctx.num_moves
        assert report.rounds_executed == sched.num_rounds
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_failure_of_uninvolved_disk_strands_nothing(self):
        """A disk with zero remaining transfers dies: nothing needs
        replanning and the schedule finishes with the original targets."""
        disks = [Disk(disk_id=f"d{i}", transfer_limit=1) for i in range(4)]
        items = [DataItem(item_id=f"i{k}") for k in range(4)]
        layout = Layout({f"i{k}": "d0" for k in range(4)})
        # d3 holds nothing and is neither source nor target of any move.
        target = Layout({f"i{k}": ("d1" if k % 2 else "d2") for k in range(4)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        assert sched.num_rounds > 1
        report = crash_run(cluster, ctx, sched, "d3")
        assert report.stranded == []
        assert sorted(report.delivered) == sorted(layout.items)
        assert report.replans == 0  # no pending move touched d3
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_stranded_reporting_is_exact_and_duplicate_free(self):
        """Stranded == items still sourced on the failed disk, once each."""
        disks = [Disk(disk_id=f"d{i}", transfer_limit=2) for i in range(3)]
        items = [DataItem(item_id=f"i{k}") for k in range(6)]
        layout = Layout(
            {f"i{k}": ("d0" if k < 4 else "d1") for k in range(6)}
        )
        target = Layout({f"i{k}": "d2" for k in range(6)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = crash_run(cluster, ctx, sched, "d0")
        assert len(report.stranded) == len(set(report.stranded))
        for item_id in report.stranded:
            assert cluster.layout.disk_of(item_id) == "d0"
        # Conservation: every move is delivered or stranded, never both.
        assert not set(report.delivered) & set(report.stranded)
        assert len(report.delivered) + len(report.stranded) == ctx.num_moves

    def test_replan_reports_lost_items_from_failed_source(self):
        disks = [Disk(disk_id=f"d{i}", transfer_limit=1) for i in range(2)]
        items = [DataItem(item_id=f"i{k}") for k in range(4)]
        layout = Layout({f"i{k}": "d0" for k in range(4)})
        target = Layout({f"i{k}": "d1" for k in range(4)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        sched = plan(ctx.instance).schedule
        report = crash_run(cluster, ctx, sched, "d0")
        # One item moved in round 0; the rest were sourced on d0.
        assert len(report.delivered) == 1
        assert len(report.stranded) == 3
