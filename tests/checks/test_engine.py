"""The engine corpora and the exact-vs-heuristic battery (repro.checks.engine)."""

from repro.checks.engine import (
    DEFAULT_CORPUS,
    check_exact_vs_heuristic,
    compare_exact_vs_heuristic,
    schedule_digest,
)
from repro.pipeline import plan
from repro.workloads.generators import random_instance


class TestScheduleDigest:
    def test_is_order_sensitive(self):
        """Byte-identity, not set-identity: order must change the digest."""
        assert schedule_digest([[1, 2], [3]]) != schedule_digest([[2, 1], [3]])
        assert schedule_digest([[1, 2], [3]]) != schedule_digest([[3], [1, 2]])

    def test_is_stable(self):
        assert schedule_digest([[1, 2]]) == schedule_digest([[1, 2]])


class TestBattery:
    def test_corpus_covers_every_registered_kernel(self):
        """The corpus must exercise each CSR kernel at least once."""
        methods = set()
        for _name, method, factory in DEFAULT_CORPUS:
            result = plan(factory(), method=method)
            methods.update(c.method for c in result.components)
        assert {"even_optimal", "bipartite_optimal", "general"} <= methods


class TestExactVsHeuristic:
    def test_full_battery_passes(self):
        report = check_exact_vs_heuristic()
        assert report.ok, report.render()
        assert len(report.cases) >= 6
        for case in report.cases:
            assert case.name.startswith("exact-vs-heuristic/")
            assert case.digest  # covers both schedules

    def test_sandwich_violation_is_reported(self):
        # A healthy instance must pass; the invariants are checked by
        # construction, so just assert the case comes back ok with the
        # exact round count.
        inst = random_instance(6, 12, uniform_capacity=2, seed=4)
        case = compare_exact_vs_heuristic("probe", inst)
        assert case.ok, case.detail
        assert case.rounds >= 1
