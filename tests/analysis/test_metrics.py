"""Tests for schedule-quality metrics."""

import pytest

from repro import plan
from repro.analysis.metrics import (
    ScheduleQuality,
    compare_methods,
    schedule_quality,
    summarize_ratios,
    summarize_runtime_trace,
)
from repro.obs import names
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


def round_span(span_id, **attrs):
    return {
        "kind": "span", "name": names.SPAN_ROUND, "span": span_id,
        "parent": None, "t0": 0.0, "wall": 0.0, "cpu": 0.0, "attrs": attrs,
    }


class TestSummarizeRuntimeTrace:
    def test_refuses_the_mistyped_round_span(self):
        """The record a mistyped ``runtime.round`` span used to fold
        into ``attempts=1, delivered=2, completion_time=4.0``."""
        bad = round_span(
            1, attempted=True, succeeded=2.7, sim_start="3", sim_duration=1
        )
        with pytest.raises(
            ValueError, match=r"^record 1: round attr 'attempted' must be an int >= 0$"
        ):
            summarize_runtime_trace([round_span(1, attempted=1), bad])

    def test_refuses_a_string_count(self):
        bad = {"kind": "counter", "name": names.RETRIES, "value": "2"}
        with pytest.raises(ValueError, match=r"^record 0: counter 'value'"):
            summarize_runtime_trace([bad])

    def test_folds_counts_and_times_as_written(self):
        summary = summarize_runtime_trace(
            [
                round_span(1, round=0, attempted=3, succeeded=2, failed=1,
                           sim_start=0.0, sim_duration=1.5),
                round_span(2, round=1, attempted=1, succeeded=1, failed=0,
                           sim_start=1.5, sim_duration=0.5),
                {"kind": "counter", "name": names.RETRIES, "value": 1},
                {"kind": "gauge", "name": names.RUNTIME_FINISHED, "value": 1.0},
            ]
        )
        assert (summary.rounds, summary.attempts, summary.delivered) == (2, 4, 3)
        assert summary.completion_time == 2.0
        assert summary.retries == 1
        assert summary.finished
