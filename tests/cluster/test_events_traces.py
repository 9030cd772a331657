"""Tests for the event log and what an execution records in it."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.events import EventLog, ItemMigrated, RoundCompleted, RoundStarted
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster
from repro.runtime import MigrationExecutor

from tests.conftest import replay_log


class TestEventLog:
    def test_time_ordering_enforced(self):
        log = EventLog()
        log.record(RoundStarted(time=1.0, round_index=0, num_transfers=1))
        with pytest.raises(ValueError):
            log.record(RoundCompleted(time=0.5, round_index=0, duration=0.5))

    def test_of_type_filters(self):
        log = EventLog()
        log.record(RoundStarted(time=0.0, round_index=0, num_transfers=1))
        log.record(RoundCompleted(time=1.0, round_index=0, duration=1.0))
        assert len(log.of_type(RoundStarted)) == 1
        assert len(log.of_type(RoundCompleted)) == 1
        assert len(log) == 2

    def test_last_time(self):
        log = EventLog()
        assert log.last_time() == 0.0
        log.record(RoundStarted(time=3.0, round_index=0, num_transfers=1))
        assert log.last_time() == 3.0


def executed_migration():
    disks = [Disk(disk_id=f"d{i}", transfer_limit=2) for i in range(3)]
    items = [DataItem(item_id=f"i{k}") for k in range(6)]
    layout = Layout({f"i{k}": f"d{k % 2}" for k in range(6)})
    target = Layout({f"i{k}": f"d{(k + 1) % 3}" for k in range(6)})
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    initial = cluster.layout.copy()
    ctx = cluster.migration_to(target)
    sched = plan(ctx.instance).schedule
    report = MigrationExecutor(cluster, ctx, sched).run()
    return cluster, initial, report


class TestTraces:
    def test_trace_captures_all_transfers(self):
        _cluster, _initial, report = executed_migration()
        assert len(report.log.of_type(ItemMigrated)) == len(report.delivered)
        durations = [e.duration for e in report.log.of_type(RoundCompleted)]
        assert sum(durations) == pytest.approx(report.total_time)

    def test_replay_reaches_same_layout(self):
        cluster, initial, report = executed_migration()
        replayed = replay_log(report, initial)
        for item_id in cluster.layout.items:
            assert replayed.disk_of(item_id) == cluster.layout.disk_of(item_id)
