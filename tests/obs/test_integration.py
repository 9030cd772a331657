"""End-to-end observability tests: pipeline, runtime, CLI.

Covers the two contract halves: with a real tracer every layer emits a
schema-valid trace that the analysis/CLI layer can fold; with the
default no-op tracer instrumented code paths are byte-for-byte
identical to an uninstrumented run.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.metrics import aggregate_trace, summarize_runtime_trace
from repro.cli import main
from repro.obs import InMemoryExporter, Tracer, names
from repro.obs.schema import validate_trace
from repro.pipeline import PlanCache, plan
from repro.runtime import FaultPlan, MigrationExecutor
from repro.workloads.generators import random_instance
from repro.workloads.scenarios import decommission_scenario


def traced(fn):
    """Run ``fn(tracer)``; return the flushed records."""
    exporter = InMemoryExporter()
    tracer = Tracer(exporter)
    fn(tracer)
    tracer.close()
    return exporter.records


class TestTracedPipeline:
    def test_plan_emits_valid_trace_with_stage_and_solve_spans(self):
        instance = random_instance(num_disks=10, num_items=50, seed=2)
        records = traced(lambda tr: plan(instance, tracer=tr))
        assert validate_trace(records) == []
        spans = [r for r in records if r["kind"] == "span"]
        span_names = {r["name"] for r in spans}
        assert names.SPAN_PLAN in span_names
        for stage in ("normalize", "decompose", "select", "solve", "merge"):
            assert names.stage_span(stage) in span_names
        # Solve spans nest under the solve stage under the plan root.
        by_id = {r["span"]: r for r in spans}
        solve = next(r for r in spans if r["name"] == names.SPAN_SOLVE)
        stage = by_id[solve["parent"]]
        assert stage["name"] == names.stage_span("solve")
        assert by_id[stage["parent"]]["name"] == names.SPAN_PLAN

    def test_plan_root_carries_outcome_attrs(self):
        instance = random_instance(num_disks=8, num_items=30, seed=1)
        records = traced(lambda tr: plan(instance, tracer=tr))
        root = next(r for r in records if r.get("name") == names.SPAN_PLAN)
        assert root["attrs"]["rounds"] >= 1
        assert root["attrs"]["components"] >= 1

    def test_cache_hits_and_misses_are_counted(self):
        instance = random_instance(num_disks=8, num_items=30, seed=5)
        cache = PlanCache()
        cold = traced(lambda tr: plan(instance, cache=cache, tracer=tr))
        warm = traced(lambda tr: plan(instance, cache=cache, tracer=tr))

        def counter(records, name):
            return sum(
                r["value"]
                for r in records
                if r["kind"] == "counter" and r["name"] == name
            )

        assert counter(cold, names.PLAN_CACHE_MISSES) >= 1
        assert counter(cold, names.PLAN_CACHE_HITS) == 0
        assert counter(warm, names.PLAN_CACHE_HITS) >= 1
        assert counter(warm, names.PLAN_CACHE_MISSES) == 0

    def test_tracing_does_not_change_the_schedule(self):
        instance = random_instance(num_disks=9, num_items=40, seed=7)
        bare = plan(instance, seed=0).schedule
        traced_schedule = None

        def go(tr):
            nonlocal traced_schedule
            traced_schedule = plan(instance, seed=0, tracer=tr).schedule

        traced(go)
        assert traced_schedule.rounds == bare.rounds


class TestTracedRuntime:
    def run_scenario(self, tracer, fault_rate=0.1):
        scenario = decommission_scenario(seed=2)
        schedule = plan(scenario.instance, tracer=tracer).schedule
        executor = MigrationExecutor(
            scenario.cluster,
            scenario.context,
            schedule,
            faults=FaultPlan(transfer_failure_rate=fault_rate),
            seed=4,
            tracer=tracer,
        )
        return executor.run()

    def test_executor_emits_round_spans_and_counters(self):
        reports = []
        records = traced(lambda tr: reports.append(self.run_scenario(tr)))
        assert validate_trace(records) == []
        report = reports[0]
        rounds = [r for r in records if r.get("name") == names.SPAN_ROUND]
        assert len(rounds) == report.rounds_executed
        attempted = sum(r["attrs"]["attempted"] for r in rounds)
        succeeded = sum(r["attrs"]["succeeded"] for r in rounds)
        assert succeeded == len(report.delivered)
        assert attempted >= succeeded
        counters = {
            r["name"]: r["value"] for r in records if r["kind"] == "counter"
        }
        assert counters[names.TRANSFERS_ATTEMPTED] == attempted
        gauges = {r["name"]: r["value"] for r in records if r["kind"] == "gauge"}
        assert gauges[names.RUNTIME_FINISHED] == 1.0

    def test_summarize_runtime_trace_folds_obs_dialect(self):
        reports = []
        records = traced(lambda tr: reports.append(self.run_scenario(tr)))
        report = reports[0]
        summary = summarize_runtime_trace(records)
        assert summary.finished
        assert summary.rounds == report.rounds_executed
        assert summary.delivered == len(report.delivered)
        assert summary.attempts >= summary.delivered
        assert summary.failed == summary.attempts - summary.delivered

    def test_aggregate_trace_stats(self):
        records = traced(lambda tr: self.run_scenario(tr))
        stats = aggregate_trace(records)
        assert stats.plans == 1
        assert stats.rounds  # one row per executed round
        assert set(stats.stages) >= {"normalize", "solve", "merge"}
        assert all(t["calls"] == 1 for t in stats.stages.values())
        for row in stats.rounds:
            assert row["attempted"] >= row["succeeded"]


class TestCliStats:
    def test_plan_trace_out_then_stats_validate(self, tmp_path, capsys):
        instance_path = tmp_path / "inst.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["generate", str(instance_path), "--disks", "10",
                     "--items", "50", "--seed", "1"]) == 0
        assert main(["plan", str(instance_path), "--json", "--certify",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "trace OK" in out
        assert "pipeline stages" in out
        assert "solvers" in out
        assert "plan_components_solved" in out

    def test_run_trace_out_then_stats(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main(["run", "decommission", "--seed", "2", "--fault-rate",
                     "0.05", "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "executed rounds" in out
        assert names.TRANSFERS_ATTEMPTED in out

    def test_stats_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span", "name": 3}\n')
        assert main(["stats", str(bad), "--validate"]) == 1
        assert "invalid" in capsys.readouterr().err


class TestNoopByteIdentity:
    """The no-op tracer default leaves output bit-for-bit unchanged."""

    QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"

    @staticmethod
    def strip_timings(text):
        """Drop the wall-clock timing figures, which legitimately vary."""
        return "\n".join(
            line for line in text.splitlines() if "stage timings" not in line
        )

    def run_quickstart(self, hash_seed):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        env["PYTHONHASHSEED"] = str(hash_seed)
        result = subprocess.run(
            [sys.executable, str(self.QUICKSTART)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return self.strip_timings(result.stdout)

    def test_quickstart_output_identical_across_processes(self):
        runs = {self.run_quickstart(seed) for seed in (0, 1)}
        assert len(runs) == 1
