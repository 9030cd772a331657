"""Tests for the text Gantt renderer and utilization metric."""

import pytest

from repro import plan
from repro.analysis.gantt import render_gantt, utilization
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from tests.conftest import random_instance


@pytest.fixture
def small():
    inst = MigrationInstance.from_moves(
        [("a", "b"), ("a", "b"), ("b", "c")], {"a": 2, "b": 2, "c": 1}
    )
    sched = plan(inst).schedule
    return inst, sched


class TestRenderGantt:
    def test_contains_all_busy_disks(self, small):
        inst, sched = small
        out = render_gantt(inst, sched)
        for disk in ("a", "b", "c"):
            assert disk in out

    def test_hides_idle_disks_by_default(self):
        inst = MigrationInstance.from_moves(
            [("a", "b")], {"a": 1, "b": 1, "idle": 4}, extra_nodes=["idle"]
        )
        sched = plan(inst).schedule
        assert "idle" not in render_gantt(inst, sched)
        assert "idle" in render_gantt(inst, sched, only_busy=False)

    def test_row_width_matches_rounds(self, small):
        inst, sched = small
        lines = render_gantt(inst, sched).splitlines()[2:]
        for line in lines:
            cells = line.rsplit("| ", 1)[1]
            assert len(cells) == sched.num_rounds

    def test_truncation_marker(self):
        inst = random_instance(6, 60, capacity_choices=(1,), seed=0)
        sched = plan(inst).schedule
        assert sched.num_rounds > 5
        out = render_gantt(inst, sched, max_rounds=5)
        assert "…" in out

    def test_multi_capacity_cells_show_counts(self):
        inst = MigrationInstance.from_moves(
            [("hub", f"x{i}") for i in range(4)],
            {"hub": 4, "x0": 1, "x1": 1, "x2": 1, "x3": 1},
        )
        sched = plan(inst).schedule
        out = render_gantt(inst, sched)
        assert "4" in out  # the hub runs 4 transfers in its round


class TestUtilization:
    def test_range_and_busy_hub(self):
        inst = MigrationInstance.from_moves(
            [("hub", f"x{i}") for i in range(4)],
            {"hub": 4, "x0": 1, "x1": 1, "x2": 1, "x3": 1},
        )
        sched = plan(inst).schedule
        util = utilization(inst, sched)
        assert util["hub"] == pytest.approx(1.0)
        for v, u in util.items():
            assert 0.0 <= u <= 1.0

    def test_empty_schedule(self):
        from repro.graphs.multigraph import Multigraph

        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        assert utilization(inst, MigrationSchedule([])) == {"a": 0.0}
