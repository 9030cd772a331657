"""Tests for the event log and migration traces."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.events import EventLog, ItemMigrated, RoundCompleted, RoundStarted
from repro.cluster.engine import MigrationEngine
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster
from repro.cluster.traces import MigrationTrace, replay_trace


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
    report = MigrationEngine(cluster).execute(ctx, sched)
    return cluster, initial, report


class TestTraces:
    def test_trace_captures_all_transfers(self):
        _cluster, _initial, report = executed_migration()
        trace = MigrationTrace.from_report(report)
        assert len(trace.transfers) == len(report.migrated_items)
        assert trace.total_time == report.total_time

    def test_json_roundtrip(self):
        _cluster, _initial, report = executed_migration()
        trace = MigrationTrace.from_report(report)
        back = MigrationTrace.from_json(trace.to_json())
        assert back.total_time == trace.total_time
        assert len(back.transfers) == len(trace.transfers)
        assert back.round_durations == trace.round_durations

    def test_replay_reaches_same_layout(self):
        cluster, initial, report = executed_migration()
        trace = MigrationTrace.from_report(report)
        replayed = replay_trace(trace, initial)
        for item_id in cluster.layout.items:
            assert replayed.disk_of(item_id) == cluster.layout.disk_of(item_id)

    def test_replay_detects_inconsistency(self):
        _cluster, initial, report = executed_migration()
        trace = MigrationTrace.from_report(report)
        # Corrupt: claim a transfer from a disk the item is not on.
        bad = trace.transfers[0].__class__(
            time=trace.transfers[0].time,
            duration=trace.transfers[0].duration,
            item_id=trace.transfers[0].item_id,
            source="ghost",
            target=trace.transfers[0].target,
        )
        trace.transfers[0] = bad
        with pytest.raises(ValueError, match="inconsistent"):
            replay_trace(trace, initial)
