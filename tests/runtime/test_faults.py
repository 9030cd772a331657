"""Tests for fault plans, injection, crashes and partitions."""

import json
import random

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.events import DiskRemoved, ItemMigrated, MigrationReplanned
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster
from repro.runtime import (
    DiskCrash,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    MigrationExecutor,
    NetworkPartition,
)
from repro.workloads.scenarios import decommission_scenario, scale_out_scenario


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(transfer_failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(transfer_failure_rate=-0.1)
        FaultPlan(transfer_failure_rate=0.0)  # boundary ok

    def test_to_json_reads_back_equal_from_json(self):
        """A checkpoint stores ``to_json()`` and a resume compares it
        with the new run's, so it must read back equal from strict
        JSON."""
        plan = FaultPlan(
            transfer_failure_rate=0.25,
            crashes=(DiskCrash("d1", 0.0), DiskCrash("d2", 7.5)),
            partitions=(
                NetworkPartition(0.0, 1.0, ("d1",)),
                NetworkPartition(3.0, 9.0, ("d2", "d3")),
            ),
        )
        text = json.dumps(plan.to_json(), allow_nan=False)
        assert json.loads(text) == plan.to_json()


class TestFaultPlanValidation:
    def test_negative_crash_time(self):
        with pytest.raises(FaultPlanError, match="crash time"):
            DiskCrash("d1", -1.0)

    def test_duplicate_crash_targets(self):
        with pytest.raises(FaultPlanError, match="duplicate crash target"):
            FaultPlan(crashes=(DiskCrash("d1", 1.0), DiskCrash("d1", 2.0)))

    def test_empty_partition_window(self):
        with pytest.raises(FaultPlanError, match="window is empty"):
            NetworkPartition(5.0, 5.0, ("d1",))
        with pytest.raises(FaultPlanError, match="window is empty"):
            NetworkPartition(5.0, 2.0, ("d1",))

    @pytest.mark.parametrize(
        "at_time", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_non_finite_crash_time(self, at_time):
        with pytest.raises(FaultPlanError, match="crash time must be a finite number"):
            DiskCrash("d1", at_time)

    @pytest.mark.parametrize(
        "start, end",
        [(float("nan"), 2.0), (0.0, float("nan")), (0.0, float("inf"))],
        ids=["start-nan", "end-nan", "end-inf"],
    )
    def test_non_finite_partition_bounds(self, start, end):
        with pytest.raises(FaultPlanError, match="bounds must be finite"):
            NetworkPartition(start, end, ("d1",))

    def test_negative_partition_start(self):
        with pytest.raises(FaultPlanError, match="start"):
            NetworkPartition(-1.0, 2.0, ("d1",))

    def test_empty_partition_group(self):
        with pytest.raises(FaultPlanError, match="at least one disk"):
            NetworkPartition(0.0, 2.0, ())

    def test_duplicate_partition_group_members(self):
        with pytest.raises(FaultPlanError, match="duplicate disks"):
            NetworkPartition(0.0, 2.0, ("d1", "d1"))

    def test_fault_plan_error_is_value_error(self):
        # Callers that predate the typed error still catch it.
        with pytest.raises(ValueError):
            FaultPlan(transfer_failure_rate=2.0)
        assert issubclass(FaultPlanError, ValueError)


class TestFaultInjector:
    def test_zero_rate_never_draws(self):
        injector = FaultInjector(FaultPlan())

        class ExplodingRng:
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("rng consulted despite zero fault rate")

        assert injector.transfer_fails(ExplodingRng(), 0.0) is False

    def test_rate_draws_match_rng(self):
        injector = FaultInjector(FaultPlan(transfer_failure_rate=0.5))
        draws = [injector.transfer_fails(random.Random(3), 0.0) for _ in range(5)]
        expected = [random.Random(3).random() < 0.5 for _ in range(5)]
        assert draws == expected

    def test_due_crashes_fire_once(self):
        plan = FaultPlan(crashes=(DiskCrash("a", 2.0), DiskCrash("b", 5.0)))
        injector = FaultInjector(plan)
        assert injector.due_crashes(1.0, set()) == []
        due = injector.due_crashes(3.0, set())
        assert [c.disk_id for c in due] == ["a"]
        assert injector.due_crashes(6.0, {"a"}) == [DiskCrash("b", 5.0)]


class TestNetworkPartition:
    def test_severs_only_across_the_cut_during_window(self):
        part = NetworkPartition(start=2.0, end=6.0, group=("d1",))
        assert part.severs("d1", "d2", 3.0)
        assert part.severs("d2", "d1", 3.0)
        assert not part.severs("d2", "d3", 3.0)  # both outside the group
        assert not part.severs("d1", "d2", 1.0)  # before the window
        assert not part.severs("d1", "d2", 6.0)  # end is exclusive

    def test_executor_retries_through_partition(self):
        """Transfers blocked by a partition heal once it lifts."""
        disks = [Disk(disk_id=f"d{i}", transfer_limit=2) for i in range(3)]
        items = [DataItem(item_id=f"i{k}") for k in range(6)]
        layout = Layout({f"i{k}": "d0" for k in range(6)})
        target = Layout({f"i{k}": ("d1" if k % 2 else "d2") for k in range(6)})
        cluster = StorageCluster(disks=disks, items=items, layout=layout)
        ctx = cluster.migration_to(target)
        faults = FaultPlan(partitions=(NetworkPartition(0.0, 2.5, ("d0",)),))
        report = MigrationExecutor(
            cluster, ctx, plan(ctx.instance).schedule, faults=faults, seed=1
        ).run()
        assert report.finished and report.fully_delivered
        assert report.telemetry.counters["failures_partition"] > 0
        assert report.telemetry.counters["retries"] > 0
        assert cluster.layout.as_dict() == target.as_dict()


class TestDiskCrash:
    def test_crash_strands_items_sourced_on_dead_disk(self):
        """Items still sitting on a crashed disk cannot be moved."""
        scenario = decommission_scenario(seed=1)
        # "old-0" is a retiring source disk; crash it mid-drain.
        faults = FaultPlan(crashes=(DiskCrash("old-0", 3.0),))
        ex = MigrationExecutor(
            scenario.cluster,
            scenario.context,
            plan(scenario.instance).schedule,
            faults=faults,
            seed=2,
        )
        report = ex.run()
        assert report.finished
        assert report.stranded  # some items never left old-0
        for item in report.stranded:
            assert item.startswith("old-0/")
        assert len(report.delivered) + len(report.stranded) == scenario.context.num_moves
        assert "old-0" not in scenario.cluster.disks
        removed = report.log.of_type(DiskRemoved)
        assert [e.disk_id for e in removed] == ["old-0"]

    def test_crash_of_target_disk_triggers_replan(self):
        """Pending moves aimed at the dead disk are retargeted."""
        scenario = scale_out_scenario(seed=5)
        faults = FaultPlan(crashes=(DiskCrash("new0", 4.0),))
        ex = MigrationExecutor(
            scenario.cluster,
            scenario.context,
            plan(scenario.instance).schedule,
            faults=faults,
            seed=5,
        )
        report = ex.run()
        assert report.finished
        assert report.replans >= 1
        assert report.log.of_type(MigrationReplanned)
        # Transfers that beat the crash keep their landing spot, but no
        # migration lands on the casualty after it leaves the fleet.
        removed_at = report.log.of_type(DiskRemoved)[0].time
        for event in report.log.of_type(ItemMigrated):
            if event.target == "new0":
                assert event.time <= removed_at
        assert len(report.delivered) + len(report.stranded) == scenario.context.num_moves

    def test_crash_before_start_strands_everything_on_it(self):
        disks = [Disk(disk_id="a", transfer_limit=1), Disk(disk_id="b", transfer_limit=1)]
        items = [DataItem(item_id="x"), DataItem(item_id="y")]
        cluster = StorageCluster(
            disks=disks, items=items, layout=Layout({"x": "a", "y": "b"})
        )
        ctx = cluster.migration_to(Layout({"x": "b", "y": "a"}))
        faults = FaultPlan(crashes=(DiskCrash("a", 0.0),))
        report = MigrationExecutor(
            cluster, ctx, plan(ctx.instance).schedule, faults=faults
        ).run()
        assert report.finished
        # x was sourced on the dead disk: stranded.  y targeted it: the
        # replan re-aims y at the only survivor — its own disk — so it
        # is delivered in place.
        assert report.stranded == ["x"]
        assert sorted(report.delivered) == ["y"]
        assert cluster.layout.disk_of("y") == "b"

    def test_crash_determinism_across_runs(self):
        outcomes = []
        for _ in range(2):
            scenario = scale_out_scenario(seed=7)
            ex = MigrationExecutor(
                scenario.cluster,
                scenario.context,
                plan(scenario.instance).schedule,
                faults=FaultPlan(
                    transfer_failure_rate=0.1, crashes=(DiskCrash("new1", 6.0),)
                ),
                seed=7,
            )
            report = ex.run()
            outcomes.append(
                (
                    ex.telemetry.totals(),
                    sorted(report.delivered),
                    sorted(report.stranded),
                    scenario.cluster.layout.as_dict(),
                )
            )
        assert outcomes[0] == outcomes[1]
