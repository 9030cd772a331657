"""The differential engine-equivalence harness (repro.checks.engine)."""

import pytest

from repro.checks.engine import (
    DEFAULT_CORPUS,
    check_engine_equivalence,
    compare_with_reference,
    reference_engine,
    schedule_digest,
)
from repro.checks.engine import _diff_results
from repro.core.schedule import MigrationSchedule
from repro.pipeline import plan
from repro.workloads.generators import bipartite_instance, random_instance


class TestScheduleDigest:
    def test_is_order_sensitive(self):
        """Byte-identity, not set-identity: order must change the digest."""
        assert schedule_digest([[1, 2], [3]]) != schedule_digest([[2, 1], [3]])
        assert schedule_digest([[1, 2], [3]]) != schedule_digest([[3], [1, 2]])

    def test_is_stable(self):
        assert schedule_digest([[1, 2]]) == schedule_digest([[1, 2]])


class TestCompareBackends:
    def test_ok_case_carries_digest(self):
        instance = bipartite_instance(4, 3, 25, seed=1)
        case = compare_with_reference("bip", instance, method="auto", seed=0)
        assert case.ok
        assert case.rounds > 0
        assert len(case.digest) == 64

    def test_divergence_is_reported(self):
        instance = random_instance(6, 25, seed=4)
        with reference_engine():
            obj = plan(instance, certify=True)
        arr = plan(instance, certify=True)
        assert _diff_results(obj, arr) == []
        # Sabotage the array result: swap the first two rounds.
        rounds = arr.schedule.rounds
        rounds[0], rounds[1] = rounds[1], rounds[0]
        arr.schedule = MigrationSchedule(rounds, method=arr.schedule.method)
        problems = _diff_results(obj, arr)
        assert any("rounds differ" in p for p in problems)
        assert any("digests differ" in p for p in problems)

    def test_lower_bound_divergence_is_reported(self):
        instance = random_instance(6, 25, seed=4)
        with reference_engine():
            obj = plan(instance, certify=True)
        arr = plan(instance, certify=True)
        arr.lower_bound = (arr.lower_bound or 0) + 1
        assert any(
            "lower bounds differ" in p for p in _diff_results(obj, arr)
        )


class TestBattery:
    def test_corpus_covers_every_registered_kernel(self):
        """The corpus must exercise each CSR kernel at least once."""
        methods = set()
        for _name, method, factory in DEFAULT_CORPUS:
            result = plan(factory(), method=method)
            methods.update(c.method for c in result.components)
        assert {"even_optimal", "bipartite_optimal", "general"} <= methods

    def test_full_battery_passes(self):
        report = check_engine_equivalence()
        assert report.ok, report.render()

    def test_small_battery(self):
        corpus = (
            (
                "tiny",
                "auto",
                lambda: random_instance(8, 30, seed=2),
            ),
        )
        report = check_engine_equivalence(corpus=corpus, seeds=(0,))
        assert report.ok
        assert len(report.cases) == 1
        assert "ok" in report.render()


class TestExactVsHeuristic:
    def test_full_battery_passes(self):
        from repro.checks.engine import check_exact_vs_heuristic

        report = check_exact_vs_heuristic()
        assert report.ok, report.render()
        assert len(report.cases) >= 6
        for case in report.cases:
            assert case.name.startswith("exact-vs-heuristic/")
            assert case.digest  # covers both schedules

    def test_sandwich_violation_is_reported(self):
        from repro.checks.engine import compare_exact_vs_heuristic
        from repro.workloads.generators import random_instance as gen_random

        # A healthy instance must pass; the invariants are checked by
        # construction, so just assert the case comes back ok with the
        # exact round count.
        inst = gen_random(6, 12, uniform_capacity=2, seed=4)
        case = compare_exact_vs_heuristic("probe", inst)
        assert case.ok, case.detail
        assert case.rounds >= 1
