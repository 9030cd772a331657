"""Tests for the eager (round-free) execution engine."""

import pytest

from repro import plan
from repro.cluster.disk import Disk
from repro.cluster.eager import EagerEngine
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.network import ReservedLaneRates
from repro.cluster.system import StorageCluster
from repro.workloads.scenarios import scale_out_scenario, vod_rebalance_scenario


def chain_cluster():
    """d0 holds 4 items for d1 and one for d2; c=1 everywhere."""
    disks = [Disk(disk_id=f"d{i}", transfer_limit=1, bandwidth=1.0) for i in range(3)]
    items = [DataItem(item_id=f"i{k}") for k in range(5)]
    layout = Layout({f"i{k}": "d0" for k in range(5)})
    target = Layout({f"i{k}": "d1" for k in range(4)})
    target.place("i4", "d2")
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    return cluster, target


class TestEagerBasics:
    def test_executes_everything(self):
        cluster, target = chain_cluster()
        ctx = cluster.migration_to(target)
        report = EagerEngine(cluster).execute(ctx)
        assert report.num_transfers == 5
        for item_id in target.items:
            assert cluster.layout.disk_of(item_id) == target.disk_of(item_id)

    def test_serial_bottleneck_time(self):
        # d0 can send one at a time: 5 unit transfers = 5 time units.
        cluster, target = chain_cluster()
        ctx = cluster.migration_to(target)
        report = EagerEngine(cluster).execute(ctx)
        assert report.total_time == pytest.approx(5.0)

    def test_start_times_monotone_on_bottleneck(self):
        cluster, target = chain_cluster()
        ctx = cluster.migration_to(target)
        report = EagerEngine(cluster).execute(ctx)
        starts = sorted(report.start_times.values())
        assert starts == [pytest.approx(float(k)) for k in range(5)]


class TestEagerVsRounds:
    @pytest.mark.parametrize("builder,seed", [
        (vod_rebalance_scenario, 1),
        (scale_out_scenario, 2),
    ])
    def test_eager_within_graham_factor_of_round_model(self, builder, seed):
        """Eager is greedy list scheduling: no dominance guarantee over
        an optimally colored round schedule (scheduling anomalies are
        real), but it stays within the Graham-style 2x factor and the
        ablation bench reports the empirical comparison."""
        scenario = builder(seed=seed)
        sched = plan(scenario.instance).schedule

        # Round model with the reserved-share rate: each round costs
        # the slowest transfer at full-capacity sharing.
        rates = ReservedLaneRates()
        round_time = sum(
            rates.round_duration(scenario.cluster, scenario.context, rnd)
            for rnd in sched.rounds
        )
        report = EagerEngine(scenario.cluster).execute(scenario.context)
        assert report.total_time <= 2 * round_time + 1e-9

    def test_empty_plan(self):
        scenario = scale_out_scenario(seed=3)
        ctx = scenario.cluster.migration_to(scenario.cluster.layout.copy())
        report = EagerEngine(scenario.cluster).execute(ctx)
        assert report.total_time == 0.0
        assert report.num_transfers == 0
