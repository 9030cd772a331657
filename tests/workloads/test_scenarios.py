"""Tests for the end-to-end cluster scenarios."""

import pytest

from repro import plan
from repro.cluster.network import UnitRates
from repro.runtime import MigrationExecutor
from repro.workloads.scenarios import (
    decommission_scenario,
    scale_out_scenario,
    sensor_harvest_scenario,
    vod_rebalance_scenario,
)

ALL_SCENARIOS = [
    vod_rebalance_scenario,
    scale_out_scenario,
    decommission_scenario,
    sensor_harvest_scenario,
]


class TestScenarioShapes:
    @pytest.mark.parametrize("builder", ALL_SCENARIOS)
    def test_produces_schedulable_instance(self, builder):
        scenario = builder(seed=1)
        inst = scenario.instance
        assert inst.num_items > 0
        sched = plan(inst).schedule
        sched.validate(inst)

    @pytest.mark.parametrize("builder", ALL_SCENARIOS)
    def test_deterministic_per_seed(self, builder):
        a = builder(seed=5)
        b = builder(seed=5)
        assert a.instance.num_items == b.instance.num_items
        assert a.instance.capacities == b.instance.capacities

    @pytest.mark.parametrize("builder", ALL_SCENARIOS)
    def test_heterogeneous_fleet(self, builder):
        scenario = builder(seed=0)
        assert len(set(scenario.instance.capacities.values())) >= 2


class TestScenarioSemantics:
    def test_vod_moves_follow_demand_shift(self):
        scenario = vod_rebalance_scenario(num_disks=6, num_items=100, seed=2)
        # A demand reshuffle should move a nontrivial share of items
        # but not literally everything.
        assert 0 < scenario.instance.num_items <= 100

    def test_scale_out_only_targets_fill_new_disks(self):
        scenario = scale_out_scenario(num_old=4, num_new=2, items_per_old_disk=10, seed=0)
        graph = scenario.instance.graph
        # All moves originate on old disks.
        for _eid, u, v in graph.edges():
            assert str(u).startswith("old")
            assert str(v).startswith("new")

    def test_decommission_drains_retiring_disks(self):
        scenario = decommission_scenario(num_disks=9, num_retiring=3, seed=0)
        target = scenario.context.target
        retiring_sources = {
            str(u)
            for _eid, u, _v in scenario.instance.graph.edges()
        }
        assert retiring_sources  # some disks are draining
        # No item targets a retiring (old-generation) disk.
        for item in target.items:
            assert not str(target.disk_of(item)).startswith("old-")


class TestSensorHarvest:
    def test_all_moves_target_collectors(self):
        scenario = sensor_harvest_scenario(seed=1)
        for _eid, u, v in scenario.instance.graph.edges():
            assert str(u).startswith("sensor")
            assert str(v).startswith("collector")

    def test_bipartite_optimal_dispatch(self):
        scenario = sensor_harvest_scenario(seed=2)
        sched = plan(scenario.instance).schedule
        # Sensors -> collectors is bipartite: exactly Δ' rounds.
        assert sched.method == "bipartite_optimal"
        assert sched.num_rounds == scenario.instance.delta_prime()


class TestScenarioExecution:
    @pytest.mark.parametrize("builder", ALL_SCENARIOS)
    def test_executes_to_target(self, builder):
        scenario = builder(seed=3)
        sched = plan(scenario.instance).schedule
        report = MigrationExecutor(
            scenario.cluster, scenario.context, sched, rate_model=UnitRates()
        ).run()
        assert report.fully_delivered
        assert report.total_time == sched.num_rounds
        for item_id in scenario.context.target.items:
            if item_id in scenario.cluster.layout:
                assert scenario.cluster.layout.disk_of(item_id) == (
                    scenario.context.target.disk_of(item_id)
                )
