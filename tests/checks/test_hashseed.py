"""Cross-``PYTHONHASHSEED`` determinism regression tests.

Generalizes the PR 1 hot-fix (hash-order-dependent bipartite matching)
into a permanent guard: planner schedules and full executor runs must
be byte-identical across processes with different hash seeds.
"""

import pytest

from repro.checks.hashseed import (
    DeterminismError,
    EXECUTOR_DRIVER,
    FLOW_DRIVER,
    GAP_DRIVER,
    PLAN_DRIVER,
    SIM_DRIVER,
    check_determinism,
    compare_across_hash_seeds,
    run_driver,
)


class TestPlannerDeterminism:
    @pytest.mark.parametrize("method", ["auto", "general", "greedy", "saia"])
    def test_schedule_identical_across_hash_seeds(self, method):
        check = compare_across_hash_seeds(
            f"plan/{method}", PLAN_DRIVER, ["8", "30", "5", method]
        )
        assert check.ok, check.detail

    def test_bipartite_regression(self):
        # The PR 1 bug class: bipartite peeling under a hash-randomized
        # node order.  auto routes bipartite instances to that path.
        check = compare_across_hash_seeds(
            "plan/bipartite", PLAN_DRIVER, ["10", "40", "2", "auto"],
            hash_seeds=(1, 31337),
        )
        assert check.ok, check.detail


class TestExecutorDeterminism:
    def test_checkpoint_state_identical_across_hash_seeds(self):
        check = compare_across_hash_seeds(
            "runtime/executor", EXECUTOR_DRIVER, ["1", "7"]
        )
        assert check.ok, check.detail


class TestSimDeterminism:
    def test_campaign_report_identical_across_hash_seeds(self):
        # The whole closed loop — failure draws, placement, repair
        # batching, the staged planner, rate models, the metrics
        # snapshot — pinned at the report-byte level.
        check = compare_across_hash_seeds(
            "sim/cross-hashseed", SIM_DRIVER, ["300", "40", "5"],
            hash_seeds=(1, 31337),
        )
        assert check.ok, check.detail


class TestExactDeterminism:
    def test_exact_schedule_identical_across_hash_seeds(self):
        # The branch-and-bound's edge order, orbit maps, and certificate
        # digests must be hash-seed independent.
        check = compare_across_hash_seeds(
            "plan/exact_bb", PLAN_DRIVER, ["5", "8", "2", "exact_bb"],
            hash_seeds=(1, 31337),
        )
        assert check.ok, check.detail

    def test_gap_metrics_identical_across_hash_seeds(self):
        # The full quick sweep — every family exact-solved, every
        # certificate verified — pinned at the metrics-byte level.
        check = compare_across_hash_seeds(
            "exact/gap-metrics", GAP_DRIVER, [], hash_seeds=(1, 31337)
        )
        assert check.ok, check.detail


class TestFlowReportDeterminism:
    def test_flow_report_identical_across_hash_seeds(self):
        # The analyzer's call graph, effect fixpoint, and finding order
        # must all be hash-seed independent for the CI artifact bytes
        # to match.
        check = compare_across_hash_seeds(
            "checks/flow-report", FLOW_DRIVER, [], hash_seeds=(1, 31337)
        )
        assert check.ok, check.detail


class TestHarness:
    def test_battery_report_renders(self):
        report = check_determinism(
            plan_cases=[("plan/tiny", 6, 12, 0, "auto")], fast=True
        )
        assert report.ok
        assert "plan/tiny: ok" in report.render()

    def test_broken_driver_raises(self):
        with pytest.raises(DeterminismError):
            run_driver("import sys; sys.exit(3)", [], hash_seed=0)

    def test_harness_detects_injected_nondeterminism(self):
        # A driver that leaks hash order into its output MUST trip the
        # comparison — otherwise the guard guards nothing.
        leaky = (
            "import sys\n"
            "sys.stdout.write(str(hash('schedule')))\n"
        )
        check = compare_across_hash_seeds("leaky", leaky, [])
        assert not check.ok
