"""Tests for runtime telemetry and the runtime's obs trace pipeline."""

import json

from repro import plan
from repro.analysis.metrics import summarize_runtime_trace
from repro.obs import JsonlExporter, Tracer, load_trace
from repro.runtime import (
    DiskCrash,
    FaultPlan,
    MigrationExecutor,
    NetworkPartition,
    RetryPolicy,
    RuntimeTelemetry,
    load_checkpoint,
    restore_executor,
    save_checkpoint,
)
from repro.workloads.scenarios import decommission_scenario

#: Transfer faults, a partition and two disk crashes under a short
#: retry budget: the seed-7 run retries, defers, strands (a source
#: disk dies), replans (a target disk dies) and fails for two reasons,
#: so every summary field is exercised.
FAULTS = FaultPlan(
    transfer_failure_rate=0.15,
    crashes=(DiskCrash("old-0", 5.0), DiskCrash("new-2", 5.0)),
    partitions=(NetworkPartition(2.0, 6.0, ("mid-1",)),),
)
POLICY = RetryPolicy(max_retries=1, max_defers=1)


def scenario_executor(tracer=None, faults=FAULTS, scenario_seed=1, seed=7):
    scenario = decommission_scenario(seed=scenario_seed)
    executor = MigrationExecutor(
        scenario.cluster,
        scenario.context,
        plan(scenario.instance).schedule,
        faults=faults,
        policy=POLICY,
        seed=seed,
        tracer=tracer,
    )
    return scenario, executor


def assert_summary_matches(summary, report):
    """Every headline number of the trace equals the executor's own."""
    counters = report.telemetry.counters
    assert summary.finished == report.finished
    assert summary.rounds == report.rounds_executed
    assert summary.completion_time == report.total_time
    assert summary.attempts == counters["transfers_attempted"]
    assert summary.failed == counters.get("transfers_failed", 0)
    assert summary.retries == counters.get("retries", 0)
    assert summary.defers == counters.get("defers", 0)
    assert summary.replans == report.replans
    assert summary.stranded == len(report.stranded)
    assert summary.crashes == counters.get("disk_crashes", 0)
    delivered_in_place = counters.get("items_retargeted_in_place", 0)
    assert summary.delivered == len(report.delivered)
    assert summary.delivered == (
        counters["transfers_succeeded"] + delivered_in_place
    )


class TestRuntimeTelemetry:
    def test_counters_accumulate_and_sort(self):
        telemetry = RuntimeTelemetry()
        telemetry.count("zeta")
        telemetry.count("alpha", 2)
        telemetry.count("zeta", 3)
        assert telemetry.counters == {"alpha": 2, "zeta": 4}
        assert list(telemetry.counters) == ["alpha", "zeta"]

    def test_totals(self):
        telemetry = RuntimeTelemetry()
        telemetry.record_round(0, 0.0, 1.5, 4, 3, 1)
        telemetry.record_round(1, 1.5, 2.0, 2, 2, 0)
        totals = telemetry.totals()
        assert totals["rounds_executed"] == 2
        assert totals["total_duration"] == 3.5

    def test_state_round_trip(self):
        telemetry = RuntimeTelemetry()
        telemetry.count("retries", 5)
        telemetry.record_round(0, 0.0, 1.0, 3, 2, 1)
        restored = RuntimeTelemetry.from_state(
            json.loads(json.dumps(telemetry.get_state()))
        )
        assert restored.totals() == telemetry.totals()
        assert restored.rounds == telemetry.rounds


class TestTraceAnalysisPipeline:
    def test_summary_matches_executor_report(self, tmp_path):
        """analysis.metrics reconstructs the run from the trace alone."""
        path = str(tmp_path / "run.jsonl")
        with Tracer(JsonlExporter(path)) as tracer:
            _scenario, ex = scenario_executor(tracer=tracer)
            report = ex.run()
        assert report.finished

        summary = summarize_runtime_trace(load_trace(path))
        assert_summary_matches(summary, report)
        assert summary.finished
        assert all(
            (summary.retries, summary.defers, summary.replans, summary.stranded)
        )
        assert summary.crashes == 2
        assert sorted(summary.failures) == ["fault", "partition"]
        assert 0.0 < summary.goodput <= 1.0

    def test_tracing_does_not_change_the_run(self, tmp_path):
        """Telemetry is observational: trace on/off, same outcome."""
        results = []
        for tracer in (None, Tracer(JsonlExporter(str(tmp_path / "x.jsonl")))):
            scenario, ex = scenario_executor(
                tracer=tracer,
                faults=FaultPlan(transfer_failure_rate=0.2),
                scenario_seed=2,
                seed=3,
            )
            ex.run()
            if tracer is not None:
                tracer.close()
            results.append((ex.telemetry.totals(), scenario.cluster.layout.as_dict()))
        assert results[0] == results[1]

    def test_summary_folds_resumed_trace(self, tmp_path):
        """A trace appended across kill/resume sums like one run."""
        whole = str(tmp_path / "whole.jsonl")
        with Tracer(JsonlExporter(whole)) as tracer:
            _scenario, ex = scenario_executor(tracer=tracer)
            ex.run()

        path = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "run.ckpt")
        with Tracer(JsonlExporter(path)) as tracer:
            _scenario, ex = scenario_executor(tracer=tracer)
            ex.run(max_rounds=5)
            save_checkpoint(ckpt, ex)

        _config, state = load_checkpoint(ckpt)
        cluster = decommission_scenario(seed=1).cluster
        with Tracer(JsonlExporter(path, append=True)) as tracer:
            resumed = restore_executor(
                cluster, state, faults=FAULTS, policy=POLICY, seed=7, tracer=tracer
            )
            report = resumed.run()
        assert report.finished

        summary = summarize_runtime_trace(load_trace(path))
        assert_summary_matches(summary, report)
        assert summary == summarize_runtime_trace(load_trace(whole))
