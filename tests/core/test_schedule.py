"""Tests for schedules and their validation."""

import pytest

from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule, endpoint_loads


@pytest.fixture
def path_instance():
    return MigrationInstance.from_moves(
        [("a", "b"), ("b", "c")], {"a": 1, "b": 2, "c": 1}
    )


class TestConstruction:
    def test_empty_rounds_are_dropped(self):
        sched = MigrationSchedule([[0], [], [1]])
        assert sched.num_rounds == 2

    def test_from_coloring_sorts_colors(self):
        sched = MigrationSchedule.from_coloring({0: 5, 1: 2})
        assert sched.rounds == [[1], [0]]

    def test_from_coloring_empty(self):
        assert MigrationSchedule.from_coloring({}).num_rounds == 0

    def test_as_coloring_roundtrip(self):
        sched = MigrationSchedule([[0, 2], [1]])
        coloring = sched.as_coloring()
        assert coloring == {0: 0, 2: 0, 1: 1}


class TestValidation:
    def test_valid_schedule(self, path_instance):
        e0, e1 = path_instance.graph.edge_ids()
        MigrationSchedule([[e0, e1]]).validate(path_instance)
        MigrationSchedule([[e0], [e1]]).validate(path_instance)

    def test_capacity_violation(self, path_instance):
        # b has c=2 but a has c=1: two edges at b is fine, the issue
        # must come from a different node; build a conflict at a.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}
        )
        e0, e1 = inst.graph.edge_ids()
        with pytest.raises(ScheduleValidationError, match="performs 2 transfers"):
            MigrationSchedule([[e0, e1]]).validate(inst)

    def test_missing_edge(self, path_instance):
        e0, _e1 = path_instance.graph.edge_ids()
        with pytest.raises(ScheduleValidationError, match="never migrated"):
            MigrationSchedule([[e0]]).validate(path_instance)

    def test_duplicate_edge(self, path_instance):
        e0, e1 = path_instance.graph.edge_ids()
        with pytest.raises(ScheduleValidationError, match="scheduled twice"):
            MigrationSchedule([[e0], [e0, e1]]).validate(path_instance)

    def test_unknown_edge(self, path_instance):
        with pytest.raises(ScheduleValidationError, match="unknown edge"):
            MigrationSchedule([[999]]).validate(path_instance)

    def test_is_valid_boolean(self, path_instance):
        e0, e1 = path_instance.graph.edge_ids()
        assert MigrationSchedule([[e0], [e1]]).is_valid(path_instance)
        assert not MigrationSchedule([[e0]]).is_valid(path_instance)


class TestRoundLoads:
    def test_loads_count_both_endpoints(self, path_instance):
        e0, e1 = path_instance.graph.edge_ids()
        loads = MigrationSchedule([[e0, e1]]).round_loads(path_instance, 0)
        assert loads == {"a": 1, "b": 2, "c": 1}

    def test_endpoint_loads_first_touch_order(self, path_instance):
        e0, e1 = path_instance.graph.edge_ids()
        assert list(endpoint_loads(path_instance.graph, [e1, e0]).items()) == [
            ("b", 2), ("c", 1), ("a", 1),
        ]


class TestRestrict:
    def test_restrict_keeps_round_indices(self):
        sched = MigrationSchedule([[0, 1], [2], [3, 4]])
        assert sched.restrict([1, 3]) == {1: 0, 3: 2}

    def test_restrict_empty_selection(self):
        sched = MigrationSchedule([[0], [1]])
        assert sched.restrict([]) == {}

    def test_restrict_ignores_unknown_edges(self):
        sched = MigrationSchedule([[0], [1]])
        assert sched.restrict([1, 99]) == {1: 1}
