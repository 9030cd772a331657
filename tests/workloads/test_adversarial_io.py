"""Tests for adversarial workloads and instance serialization."""

import json
import re

import pytest

from repro import plan
from repro.core.errors import InvalidInstanceError
from repro.core.lower_bounds import lb1, lb2, lower_bound
from repro.core.problem import MigrationInstance
from repro.serve.protocol import rehydrate_schedule, schedule_payload
from repro.workloads.adversarial import (
    capacity_cliff,
    odd_cycle_with_helpers,
    replication_fanout,
    shannon_triangle,
)
from repro.workloads.io import (
    instance_from_json,
    instance_from_payload,
    instance_payload,
    instance_to_json,
    load_instance,
    merge_instances,
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


def _instance_payload(**overrides):
    """A valid two-disk instance payload with fields replaced."""
    payload = {
        "format": "repro-migration-instance",
        "version": 1,
        "nodes": ["a", "b"],
        "capacities": {"a": 1, "b": 1},
        "moves": [["a", "b"]],
    }
    payload.update(overrides)
    return json.dumps(payload)


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

    @pytest.mark.parametrize("seed", range(3))
    def test_payload_dict_equals_its_json(self, seed):
        """The dict the serve protocol embeds is what its text parses
        to, and reads back to the same instance."""
        inst = random_instance(7, 30, capacity_choices=(1, 2, 3), seed=seed)
        payload = instance_payload(inst)
        assert payload == json.loads(instance_to_json(inst))
        back = instance_from_payload(payload)
        assert instance_to_json(back) == instance_to_json(inst)

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

    @pytest.mark.parametrize(
        "payload, reason",
        [
            pytest.param("{not json", "not valid JSON", id="bad-json"),
            pytest.param("[1, 2]", "is a JSON object, got list", id="not-an-object"),
            pytest.param('"text"', "is a JSON object, got str", id="json-string"),
            pytest.param(
                json.dumps({"format": "repro-migration-instance", "version": 1}),
                "missing field 'nodes'",
                id="missing-nodes",
            ),
            pytest.param(
                _instance_payload(moves={"a": "b"}),
                "field 'moves' must be an array, got dict",
                id="moves-not-array",
            ),
            pytest.param(
                _instance_payload(capacities=[1, 1]),
                "field 'capacities' must be an object, got list",
                id="capacities-not-object",
            ),
            pytest.param(
                _instance_payload(nodes=["a", ["b"]]),
                "node names are strings",
                id="node-not-string",
            ),
            pytest.param(
                _instance_payload(moves=[["a"]]),
                "a move is a [src, dst] pair",
                id="one-element-move",
            ),
            pytest.param(
                _instance_payload(moves=[["a", "b", "a"]]),
                "a move is a [src, dst] pair",
                id="three-element-move",
            ),
            pytest.param(
                _instance_payload(moves=[["a", 2]]),
                "a move is a [src, dst] pair",
                id="move-name-not-string",
            ),
            pytest.param(
                _instance_payload(capacities={"a": "2", "b": 1}),
                "capacity of 'a' must be an int",
                id="capacity-string",
            ),
            pytest.param(
                _instance_payload(capacities={"a": 1.5, "b": 1}),
                "capacity of 'a' must be an int",
                id="capacity-float",
            ),
            pytest.param(
                _instance_payload(format="repro-migration-plan"),
                "not a migration instance payload",
                id="wrong-format",
            ),
            pytest.param(
                _instance_payload(version=True),
                "unsupported version True",
                id="version-true",
            ),
            pytest.param(
                _instance_payload(version=1.0),
                "unsupported version 1.0",
                id="version-float",
            ),
            pytest.param(
                _instance_payload(capacities={"a": 1, "b": 1, "c": 2}),
                "capacity of 'c' names no disk",
                id="capacity-of-no-disk",
            ),
        ],
    )
    def test_malformed_payload_raises_invalid_instance_error(self, payload, reason):
        with pytest.raises(InvalidInstanceError, match=re.escape(reason)):
            instance_from_json(payload)


class TestPlanIO:
    @pytest.mark.parametrize("seed", range(4))
    def test_plan_roundtrip(self, seed):
        """A plan kept as its instance's JSON plus a token plan (the
        form the plan store and the service write) reads back to the
        same edges in the same rounds."""
        text = instance_to_json(
            random_instance(7, 30, capacity_choices=(1, 2, 4), seed=seed)
        )
        inst = instance_from_json(text)
        sched = plan(inst).schedule
        plan_text = json.dumps(schedule_payload(inst, sched))
        back_inst = instance_from_json(text)
        back_sched = rehydrate_schedule(back_inst, json.loads(plan_text))
        assert back_sched.num_rounds == sched.num_rounds
        assert back_sched.method == sched.method
        back_sched.validate(back_inst)
        assert [sorted(r) for r in back_sched.rounds] == [
            sorted(r) for r in sched.rounds
        ]


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
