"""Tests for schedule-quality metrics."""

import pytest

from repro import plan
from repro.analysis.metrics import (
    ScheduleQuality,
    compare_methods,
    schedule_quality,
    summarize_ratios,
)
from tests.conftest import random_instance


class TestScheduleQuality:
    def test_fields(self):
        inst = random_instance(6, 20, seed=0)
        sched = plan(inst).schedule
        q = schedule_quality(inst, sched)
        assert q.rounds == sched.num_rounds
        assert q.ratio >= 1.0
        assert q.excess == q.rounds - q.lower_bound

    def test_theorem_budget(self):
        q = ScheduleQuality(method="x", rounds=105, lower_bound=100, delta_prime=100)
        assert q.theorem_budget == 100 + 2 * 10 + 2
        assert q.within_theorem_budget

    def test_precomputed_lb_respected(self):
        inst = random_instance(6, 20, seed=0)
        sched = plan(inst).schedule
        q = schedule_quality(inst, sched, precomputed_lb=1)
        assert q.lower_bound == 1


class TestCompareMethods:
    def test_runs_all_requested(self):
        inst = random_instance(6, 25, seed=1)
        out = compare_methods(inst, methods=("general", "greedy"))
        assert set(out) == {"general", "greedy"}
        assert all(v.ratio >= 1.0 for v in out.values())

    def test_shared_lower_bound(self):
        inst = random_instance(6, 25, seed=1)
        out = compare_methods(inst, methods=("general", "saia"))
        lbs = {v.lower_bound for v in out.values()}
        assert len(lbs) == 1


class TestSummaries:
    def test_summarize_ratios(self):
        qs = [
            ScheduleQuality(method="m", rounds=r, lower_bound=10, delta_prime=10)
            for r in (10, 10, 12, 20)
        ]
        stats = summarize_ratios(qs)
        assert stats["mean"] == pytest.approx((1.0 + 1.0 + 1.2 + 2.0) / 4)
        assert stats["max"] == 2.0

    def test_empty(self):
        assert summarize_ratios([]) == {"mean": 1.0, "max": 1.0, "p95": 1.0}
