"""Integration tests: the full pipeline, cross-module invariants."""

import math

import pytest

from repro import MigrationInstance, lower_bound, plan
from repro.analysis.metrics import compare_methods
from repro.cluster.engine import MigrationEngine
from repro.cluster.traces import MigrationTrace, replay_trace
from repro.core.exact import exact_optimum_rounds
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    hotspot_instance,
    random_instance,
)
from repro.workloads.scenarios import scale_out_scenario, vod_rebalance_scenario


class TestSchedulerCrossChecks:
    """All schedulers agree on validity and respect the ordering."""

    @pytest.mark.parametrize("seed", range(5))
    def test_full_method_matrix_on_random_workloads(self, seed):
        inst = random_instance(12, 80, capacities={1: 0.3, 2: 0.4, 4: 0.3}, seed=seed)
        results = compare_methods(
            inst, methods=("general", "saia", "greedy", "homogeneous"), seed=seed
        )
        lb = lower_bound(inst)
        for quality in results.values():
            assert quality.rounds >= lb
        assert results["general"].rounds <= results["saia"].rounds
        assert results["general"].rounds <= results["greedy"].rounds

    def test_even_fleet_auto_is_certifiably_optimal(self):
        inst = random_instance(10, 60, capacities={2: 0.5, 4: 0.5}, seed=9)
        sched = plan(inst).schedule
        assert sched.method == "even_optimal"
        assert sched.num_rounds == inst.delta_prime()
        # The lower bound module independently certifies optimality.
        assert sched.num_rounds == lower_bound(inst)

    @pytest.mark.parametrize("seed", range(3))
    def test_general_matches_exact_on_small_inputs(self, seed):
        inst = random_instance(5, 10, capacities={1: 0.5, 3: 0.5}, seed=seed)
        opt = exact_optimum_rounds(inst)
        got = plan(inst, method="general").schedule.num_rounds
        assert got <= opt + 2 * math.isqrt(opt) + 2


class TestWorkloadFamilies:
    def test_figure2_family_scaling(self):
        """Rounds scale as 3M (c=1) vs M (c=2) across M."""
        for M in (2, 5, 8):
            c1 = clique_instance(3, M, capacity=1)
            c2 = clique_instance(3, M, capacity=2)
            assert plan(c1).schedule.num_rounds == 3 * M
            assert plan(c2).schedule.num_rounds == M

    def test_bipartite_redistribution(self):
        inst = bipartite_instance(6, 3, 120, old_capacity=1, new_capacity=4, seed=1)
        sched = plan(inst).schedule
        sched.validate(inst)
        assert sched.num_rounds <= lower_bound(inst) + 2

    def test_hotspot_density_bound_respected(self):
        inst = hotspot_instance(12, num_hot=2, num_items=150, seed=2)
        sched = plan(inst).schedule
        lb = lower_bound(inst)
        assert sched.num_rounds >= lb >= inst.delta_prime()


class TestSimulatorPipeline:
    def test_vod_end_to_end_with_trace_replay(self):
        scenario = vod_rebalance_scenario(num_disks=8, num_items=150, seed=4)
        initial = scenario.cluster.layout.copy()
        sched = plan(scenario.instance).schedule
        report = MigrationEngine(scenario.cluster).execute(scenario.context, sched)
        trace = MigrationTrace.from_report(report)
        replayed = replay_trace(trace, initial)
        for item_id in scenario.cluster.layout.items:
            assert replayed.disk_of(item_id) == scenario.cluster.layout.disk_of(item_id)

    def test_scale_out_schedule_beats_homogeneous_in_time(self):
        scenario = scale_out_scenario(num_old=6, num_new=3, items_per_old_disk=30, seed=5)
        inst = scenario.instance

        hetero_sched = plan(inst, method="auto").schedule
        homo_sched = plan(inst, method="homogeneous").schedule
        assert hetero_sched.num_rounds <= homo_sched.num_rounds

    def test_failure_recovery_pipeline(self):
        scenario = scale_out_scenario(num_old=4, num_new=2, items_per_old_disk=20, seed=6)
        sched = plan(scenario.instance).schedule
        engine = MigrationEngine(scenario.cluster, time_model="unit")
        failed = "new1"
        report = engine.execute_with_replan(
            scenario.context,
            sched,
            fail_after_round=0,
            failed_disk=failed,
            planner=lambda inst: plan(inst).schedule,
        )
        assert report.replans == 1
        # Nothing may sit on the failed disk afterwards except items it
        # received before failing (which are lost to this migration).
        assert failed not in scenario.cluster.disks
