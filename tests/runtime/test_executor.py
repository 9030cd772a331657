"""Tests for the supervised migration executor."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.events import ItemMigrated, RoundCompleted, RoundStarted
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.network import FairShareRates, UnitRates
from repro.cluster.system import StorageCluster
from repro.runtime import FaultPlan, MigrationExecutor, RetryPolicy
from repro.workloads.scenarios import decommission_scenario, scale_out_scenario


def small_cluster(num_items=6):
    """d0 drains onto d1/d2."""
    disks = [Disk(disk_id=f"d{i}", transfer_limit=2) for i in range(3)]
    items = [DataItem(item_id=f"i{k}") for k in range(num_items)]
    layout = Layout({f"i{k}": "d0" for k in range(num_items)})
    target = Layout({f"i{k}": ("d1" if k % 2 else "d2") for k in range(num_items)})
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    return cluster, cluster.migration_to(target), target


class TestFaultFreeExecution:
    def test_delivers_everything(self):
        cluster, ctx, target = small_cluster()
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched).run()
        assert report.finished and report.fully_delivered
        assert sorted(report.delivered) == sorted(ctx.edge_items.values())
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_clock_is_sum_of_round_durations(self):
        """With no faults the executor replays the schedule round for
        round: its clock is the rate model's durations summed."""
        scenario = decommission_scenario(seed=3)
        sched = plan(scenario.instance).schedule
        rates = FairShareRates()
        expected = 0.0
        for rnd in sched.rounds:
            expected += rates.round_duration(scenario.cluster, scenario.context, rnd)
        report = MigrationExecutor(scenario.cluster, scenario.context, sched).run()
        assert report.total_time == expected
        assert report.rounds_executed == sched.num_rounds

    def test_unit_time_model(self):
        cluster, ctx, _ = small_cluster()
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched, rate_model=UnitRates()).run()
        assert report.total_time == pytest.approx(sched.num_rounds)

    def test_event_log_compatible_with_engine_consumers(self):
        cluster, ctx, _ = small_cluster()
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched).run()
        assert len(report.log.of_type(ItemMigrated)) == ctx.num_moves
        assert len(report.log.of_type(RoundCompleted)) == report.rounds_executed
        starts = report.log.of_type(RoundStarted)
        assert [e.round_index for e in starts] == list(range(report.rounds_executed))

    def test_telemetry_counters(self):
        cluster, ctx, _ = small_cluster()
        sched = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, sched).run()
        counters = report.telemetry.counters
        assert counters["transfers_attempted"] == ctx.num_moves
        assert counters["transfers_succeeded"] == ctx.num_moves
        assert "transfers_failed" not in counters


class TestPauseResumeInMemory:
    def test_max_rounds_pauses_and_run_continues(self):
        cluster, ctx, _ = small_cluster(num_items=8)
        sched = plan(ctx.instance).schedule
        ex = MigrationExecutor(cluster, ctx, sched)
        first = ex.run(max_rounds=1)
        assert not first.finished
        assert first.rounds_executed == 1
        assert ex.pending_items
        second = ex.run()
        assert second.finished
        assert sorted(second.delivered) == sorted(ctx.edge_items.values())

    def test_paused_equals_uninterrupted(self):
        uninterrupted = decommission_scenario(seed=2)
        ex1 = MigrationExecutor(
            uninterrupted.cluster,
            uninterrupted.context,
            plan(uninterrupted.instance).schedule,
            faults=FaultPlan(transfer_failure_rate=0.1),
            seed=5,
        )
        r1 = ex1.run()

        chunked = decommission_scenario(seed=2)
        ex2 = MigrationExecutor(
            chunked.cluster,
            chunked.context,
            plan(chunked.instance).schedule,
            faults=FaultPlan(transfer_failure_rate=0.1),
            seed=5,
        )
        while not ex2.run(max_rounds=1).finished:
            pass
        assert uninterrupted.cluster.layout.as_dict() == chunked.cluster.layout.as_dict()
        assert ex1.telemetry.totals() == ex2.telemetry.totals()
        assert r1.total_time == pytest.approx(ex2.now)


class TestTransferFaults:
    def test_faults_are_retried_to_completion(self):
        cluster, ctx, target = small_cluster(num_items=8)
        sched = plan(ctx.instance).schedule
        ex = MigrationExecutor(
            cluster, ctx, sched,
            faults=FaultPlan(transfer_failure_rate=0.3), seed=13,
        )
        report = ex.run()
        assert report.finished and report.fully_delivered
        counters = report.telemetry.counters
        assert counters["transfers_failed"] > 0
        assert counters["retries"] > 0
        assert counters["transfers_attempted"] > ctx.num_moves
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            cluster, ctx, _ = small_cluster(num_items=8)
            sched = plan(ctx.instance).schedule
            ex = MigrationExecutor(
                cluster, ctx, sched,
                faults=FaultPlan(transfer_failure_rate=0.25), seed=21,
            )
            ex.run()
            outcomes.append(
                (ex.telemetry.totals(), cluster.layout.as_dict(), ex.now)
            )
        assert outcomes[0] == outcomes[1]

    def test_different_seed_different_draws(self):
        totals = []
        for seed in (1, 2):
            cluster, ctx, _ = small_cluster(num_items=8)
            sched = plan(ctx.instance).schedule
            ex = MigrationExecutor(
                cluster, ctx, sched,
                faults=FaultPlan(transfer_failure_rate=0.5), seed=seed,
            )
            ex.run()
            totals.append(ex.telemetry.totals())
        assert totals[0] != totals[1]

    def test_retries_respect_transfer_constraints(self):
        """Re-injected transfers never overload a round beyond c_v."""
        cluster, ctx, _ = small_cluster(num_items=10)
        sched = plan(ctx.instance).schedule
        ex = MigrationExecutor(
            cluster, ctx, sched,
            faults=FaultPlan(transfer_failure_rate=0.4), seed=9,
        )
        report = ex.run()
        assert report.finished
        caps = {d.disk_id: d.transfer_limit for d in cluster.disks.values()}
        for record in report.telemetry.rounds:
            # Each round's attempted count is bounded by the tightest
            # cut: total concurrent transfers <= sum(c_v) / 2.
            assert record["attempted"] <= sum(caps.values()) // 2

    def test_permanent_failure_strands_after_full_ladder(self):
        """A transfer that can never succeed ends up stranded, not spinning."""
        disks = [
            Disk(disk_id="src", transfer_limit=1, bandwidth=0.01),
            Disk(disk_id="dst", transfer_limit=1, bandwidth=0.01),
        ]
        item = DataItem(item_id="x", size=100.0)
        cluster = StorageCluster(disks=disks, items=[item], layout=Layout({"x": "src"}))
        ctx = cluster.migration_to(Layout({"x": "dst"}))
        sched = plan(ctx.instance).schedule
        policy = RetryPolicy(max_retries=1, max_defers=1, transfer_timeout=1.0)
        report = MigrationExecutor(cluster, ctx, sched, policy=policy, seed=0).run()
        assert report.finished
        assert report.stranded == ["x"]
        assert report.telemetry.counters["failures_timeout"] > 0
        assert report.replans >= 1  # escalated through the ladder once


class TestScenarios:
    @pytest.mark.parametrize("scenario_fn", [decommission_scenario, scale_out_scenario])
    def test_scenarios_complete_under_faults(self, scenario_fn):
        scenario = scenario_fn(seed=4)
        sched = plan(scenario.instance).schedule
        ex = MigrationExecutor(
            scenario.cluster, scenario.context, sched,
            faults=FaultPlan(transfer_failure_rate=0.15), seed=4,
        )
        report = ex.run()
        assert report.finished
        assert len(report.delivered) + len(report.stranded) == scenario.context.num_moves
