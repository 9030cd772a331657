"""Tests for adversarial workloads and instance serialization."""

import pytest

from repro import plan
from repro.core.lower_bounds import lb1, lb2, lower_bound
from repro.core.problem import MigrationInstance
from repro.workloads.adversarial import (
    capacity_cliff,
    odd_cycle_with_helpers,
    replication_fanout,
    shannon_triangle,
)
from repro.workloads.io import (
    instance_from_json,
    instance_to_json,
    load_instance,
    merge_instances,
    plan_from_json,
    plan_to_json,
    save_instance,
)
from tests.conftest import random_instance


class TestShannonTriangle:
    def test_gamma_binds(self):
        inst = shannon_triangle(bundle=4, capacity=1)
        assert lb1(inst) == 8       # Δ' = 2k
        assert lb2(inst) == 12      # Γ' = 3k
        assert plan(inst).schedule.num_rounds == 12

    def test_invalid_bundle(self):
        with pytest.raises(ValueError):
            shannon_triangle(0)


class TestOddCycleWithHelpers:
    def test_shape(self):
        inst = odd_cycle_with_helpers(5, multiplicity=2, num_helpers=3)
        assert inst.num_disks == 8
        assert inst.num_items == 10
        # Helpers are idle in the transfer graph.
        assert inst.graph.degree("h0") == 0

    def test_rejects_even_cycles(self):
        with pytest.raises(ValueError):
            odd_cycle_with_helpers(4, 1, 1)


class TestPetersen:
    def test_class_two_gap(self):
        """The Petersen graph: LB = 3 < OPT = 4 (chromatic index)."""
        from repro.workloads.adversarial import petersen_instance

        inst = petersen_instance()
        assert inst.num_items == 15
        assert inst.graph.max_degree() == 3
        assert lower_bound(inst) == 3
        sched = plan(inst, method="general").schedule
        sched.validate(inst)
        # χ'(Petersen) = 4: the scheduler must exceed LB but never 5.
        assert sched.num_rounds == 4

    def test_structure(self):
        from repro.workloads.adversarial import petersen_instance

        inst = petersen_instance()
        degrees = {inst.graph.degree(v) for v in inst.graph.nodes}
        assert degrees == {3}
        assert inst.graph.max_multiplicity() == 1


class TestCapacityCliff:
    def test_hub_capacity_binds(self):
        inst = capacity_cliff(num_small=6, items_each=2, big_capacity=4)
        # Hub degree 12, c=4 -> 3; leaves degree 2, c=1 -> 2.
        assert lb1(inst) == 3
        sched = plan(inst).schedule
        assert sched.num_rounds == lower_bound(inst)


class TestReplicationFanout:
    def test_shape(self):
        inst = replication_fanout(5, fanout=3, num_disks=8)
        assert inst.total_copies == 15

    def test_fanout_bound(self):
        with pytest.raises(ValueError):
            replication_fanout(2, fanout=4, num_disks=4)


class TestInstanceIO:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_preserves_structure(self, seed):
        inst = random_instance(7, 30, capacity_choices=(1, 2, 3), seed=seed)
        back = instance_from_json(instance_to_json(inst))
        assert back.num_disks == inst.num_disks
        assert back.num_items == inst.num_items
        # Multiplicities survive (node names stringified).
        for _eid, u, v in inst.graph.edges():
            assert back.graph.multiplicity(str(u), str(v)) == inst.graph.multiplicity(u, v)
        assert {str(v): c for v, c in inst.capacities.items()} == back.capacities

    def test_roundtrip_preserves_schedule_length(self):
        inst = random_instance(8, 40, seed=9)
        back = instance_from_json(instance_to_json(inst))
        assert plan(inst).schedule.num_rounds == plan(back).schedule.num_rounds

    def test_file_roundtrip(self, tmp_path):
        inst = random_instance(5, 12, seed=1)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert back.num_items == 12

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="not a migration instance"):
            instance_from_json('{"format": "something-else"}')

    def test_rejects_future_version(self):
        payload = (
            '{"format": "repro-migration-instance", "version": 99,'
            ' "nodes": [], "capacities": {}, "moves": []}'
        )
        with pytest.raises(ValueError, match="unsupported version"):
            instance_from_json(payload)


class TestPlanIO:
    @pytest.mark.parametrize("seed", range(4))
    def test_plan_roundtrip(self, seed):
        inst = random_instance(7, 30, capacity_choices=(1, 2, 4), seed=seed)
        sched = plan(inst).schedule
        back_inst, back_sched = plan_from_json(plan_to_json(inst, sched))
        assert back_sched.num_rounds == sched.num_rounds
        assert back_sched.method == sched.method
        back_sched.validate(back_inst)  # also done internally; explicit here
        # Round shapes survive (per-round endpoint multisets match).
        for rnd_a, rnd_b in zip(sched.rounds, back_sched.rounds):
            shape_a = sorted(
                tuple(map(str, inst.graph.endpoints(e))) for e in rnd_a
            )
            shape_b = sorted(
                tuple(map(str, back_inst.graph.endpoints(e))) for e in rnd_b
            )
            assert shape_a == shape_b

    def test_plan_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a migration plan"):
            plan_from_json('{"format": "repro-migration-instance"}')


class TestMergeInstances:
    def test_union_of_moves(self):
        a = MigrationInstance.from_moves([("x", "y")], {"x": 1, "y": 2})
        b = MigrationInstance.from_moves([("y", "z"), ("x", "y")], {"x": 1, "y": 2, "z": 1})
        merged = merge_instances(a, b)
        assert merged.num_items == 3
        assert merged.graph.multiplicity("x", "y") == 2
        assert merged.capacity("z") == 1

    def test_conflicting_capacity_rejected(self):
        a = MigrationInstance.from_moves([("x", "y")], {"x": 1, "y": 2})
        b = MigrationInstance.from_moves([("x", "y")], {"x": 3, "y": 2})
        with pytest.raises(ValueError, match="conflicting"):
            merge_instances(a, b)

    def test_merged_is_schedulable(self):
        a = random_instance(6, 20, capacity_choices=(2,), seed=1)
        b = random_instance(6, 20, capacity_choices=(2,), seed=1)  # same caps
        merged = merge_instances(a, b)
        sched = plan(merged).schedule
        sched.validate(merged)
        assert merged.num_items == 40
