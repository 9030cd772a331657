"""Tests for the repro-migrate command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestScheduleCommand:
    def test_schedules_moves_file(self, tmp_path, capsys):
        moves = tmp_path / "moves.txt"
        moves.write_text(
            "# two items a->b, one b->c\n"
            "a,b\n"
            "a,b\n"
            "b,c\n"
            "cap,a,2\n"
            "cap,b,2\n"
        )
        assert main(["schedule", str(moves)]) == 0
        out = capsys.readouterr().out
        assert "rounds=" in out
        assert "a->b" in out

    def test_bad_line_rejected(self, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("a,b,c,d\n")
        with pytest.raises(ValueError):
            main(["schedule", str(moves)])

    def test_method_flag(self, tmp_path, capsys):
        moves = tmp_path / "moves.txt"
        moves.write_text("a,b\ncap,a,2\ncap,b,2\n")
        assert main(["schedule", str(moves), "--method", "even_optimal"]) == 0
        assert "method=even_optimal" in capsys.readouterr().out


class TestDemoCommand:
    @pytest.mark.parametrize("scenario", ["vod", "scale-out", "decommission"])
    def test_all_scenarios_run(self, scenario, capsys):
        assert main(["demo", scenario, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rounds=" in out
        assert "simulated_time=" in out


class TestDemoListing:
    def test_list_flag_enumerates_scenarios(self, capsys):
        assert main(["demo", "--list"]) == 0
        out = capsys.readouterr().out
        assert "available scenarios:" in out
        for name in ("vod", "scale-out", "decommission", "sensor-harvest"):
            assert name in out

    def test_unknown_scenario_lists_and_fails(self, capsys):
        assert main(["demo", "warp-drive"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err
        assert "available scenarios:" in captured.out

    def test_missing_scenario_fails(self, capsys):
        assert main(["demo"]) == 2
        assert "scenario name is required" in capsys.readouterr().err


class TestRunCommand:
    def test_fault_free_run(self, capsys):
        assert main(["run", "decommission", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "delivered=90" in out
        assert "stranded=0" in out

    def test_list_flag(self, capsys):
        assert main(["run", "--list"]) == 0
        assert "available scenarios:" in capsys.readouterr().out

    def test_run_with_faults_and_crash(self, capsys):
        assert main([
            "run", "decommission", "--seed", "1",
            "--fault-rate", "0.15", "--crash", "new-2:5.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "replans=" in out
        assert "retries=" in out

    def test_bad_crash_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "decommission", "--crash", "nonsense"])

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main([
            "run", "decommission", "--seed", "1", "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        from repro.analysis.metrics import summarize_runtime_trace
        from repro.obs import load_trace

        summary = summarize_runtime_trace(load_trace(str(trace)))
        assert summary.finished
        assert summary.delivered == 90

    def test_checkpoint_pause_and_resume(self, tmp_path, capsys):
        """Kill a run mid-flight via --max-rounds, resume, and match the
        uninterrupted run's headline numbers exactly."""
        args = ["run", "decommission", "--seed", "1", "--fault-rate", "0.15"]
        assert main(args) == 0
        uninterrupted = capsys.readouterr().out.splitlines()[-1]

        ckpt = tmp_path / "run.ckpt"
        paused = main(args + ["--checkpoint", str(ckpt), "--max-rounds", "5"])
        captured = capsys.readouterr()
        assert paused == 3
        assert "paused" in captured.out
        assert ckpt.exists()

        assert main(args + ["--checkpoint", str(ckpt)]) == 0
        resumed_out = capsys.readouterr().out
        assert "resumed from" in resumed_out
        resumed = [
            line for line in resumed_out.splitlines() if line.startswith("rounds=")
        ][-1]
        assert resumed == uninterrupted

    def test_resume_refuses_different_config(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "run", "decommission", "--seed", "1", "--fault-rate", "0.15",
            "--checkpoint", str(ckpt), "--max-rounds", "2",
        ]) == 3
        capsys.readouterr()
        assert main([
            "run", "decommission", "--seed", "1", "--fault-rate", "0.3",
            "--checkpoint", str(ckpt),
        ]) == 2
        assert "refusing to resume" in capsys.readouterr().err


class TestCompareCommand:
    def test_prints_table(self, capsys):
        assert main(["compare", "--disks", "8", "--items", "40"]) == 0
        out = capsys.readouterr().out
        assert "general" in out
        assert "ratio" in out


class TestGenerateAndGantt:
    def test_generate_then_schedule_json(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        assert main(["generate", str(path), "--disks", "6", "--items", "20"]) == 0
        capsys.readouterr()
        assert main(["schedule", str(path), "--json"]) == 0
        assert "rounds=" in capsys.readouterr().out

    def test_gantt(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        main(["generate", str(path), "--disks", "6", "--items", "20"])
        capsys.readouterr()
        assert main(["gantt", str(path)]) == 0
        out = capsys.readouterr().out
        assert "c_v" in out
        assert "utilization" in out


class TestWorkloadCommand:
    SHORT = ["workload", "--steps", "12", "--items", "40", "--seed", "3"]

    def test_replay_prints_summary(self, capsys):
        assert main(self.SHORT) == 0
        out = capsys.readouterr().out
        assert "replayed 12 steps" in out
        assert "final schedule digest:" in out

    def test_report_bytes_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.SHORT + ["--report", str(a)]) == 0
        assert main(self.SHORT + ["--report", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["kind"] == "workload_replay"
        assert data["num_steps"] == 12

    def test_check_flag_verifies_identity(self, capsys):
        assert main(self.SHORT + ["--check"]) == 0
        assert "byte-identity" in capsys.readouterr().out

    def test_invalid_config_fails(self, capsys):
        assert main(["workload", "--items", "0"]) == 2
        assert "invalid workload configuration" in capsys.readouterr().err


class TestFuzzCommand:
    def test_short_fuzz(self, capsys):
        assert main(["fuzz", "--trials", "3", "--seed", "2"]) == 0
        assert "all cross-checks passed" in capsys.readouterr().out


class TestPlanStoreFlag:
    def test_second_plan_is_served_from_the_store(self, tmp_path, capsys):
        workload = tmp_path / "w.json"
        store = tmp_path / "plans.sqlite"
        assert main(["generate", str(workload), "--disks", "8", "--items", "40"]) == 0
        capsys.readouterr()

        args = ["plan", str(workload), "--json", "--store", str(store)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "store=" in cold
        assert "solved=" in cold
        assert store.exists()

        # A fresh process-worth of state: the store warms the cache, so
        # every component is answered without a solver call.
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "solved=0" in warm
        assert "cached=" in warm

    def test_store_round_trips_identical_schedules(self, tmp_path, capsys):
        workload = tmp_path / "w.json"
        store = tmp_path / "plans"
        main(["generate", str(workload), "--disks", "6", "--items", "24"])
        capsys.readouterr()
        args = ["schedule", str(workload), "--json"]
        assert main(args) == 0
        direct = capsys.readouterr().out
        assert main(["plan", str(workload), "--json", "--store", str(store)]) == 0
        capsys.readouterr()
        # The warmed replan must reproduce the direct schedule's shape.
        assert main(args) == 0
        assert capsys.readouterr().out == direct

    def test_warm_report_flags_cache_hit_with_zeroed_timings(
        self, tmp_path, capsys
    ):
        workload = tmp_path / "w.json"
        store = tmp_path / "plans.sqlite"
        main(["generate", str(workload), "--disks", "8", "--items", "40"])
        capsys.readouterr()

        cold_report = tmp_path / "cold.json"
        args = ["plan", str(workload), "--json", "--store", str(store)]
        assert main(args + ["--report", str(cold_report)]) == 0
        capsys.readouterr()
        cold = json.loads(cold_report.read_text())
        assert cold["cache_hit"] is False

        # Warm runs are fully cache-served: the report flags the hit,
        # zeroes the (noisy) stage timings, and is byte-stable.
        warm_a = tmp_path / "warm_a.json"
        warm_b = tmp_path / "warm_b.json"
        assert main(args + ["--report", str(warm_a)]) == 0
        assert main(args + ["--report", str(warm_b)]) == 0
        capsys.readouterr()
        warm = json.loads(warm_a.read_text())
        assert warm["cache_hit"] is True
        assert set(warm["stage_timings"].values()) == {0.0}
        assert warm_a.read_bytes() == warm_b.read_bytes()
        assert warm["rounds"] == cold["rounds"]

    def test_run_accepts_store(self, tmp_path, capsys):
        store = tmp_path / "plans.sqlite"
        assert main([
            "run", "decommission", "--seed", "1", "--store", str(store),
        ]) == 0
        assert "delivered=90" in capsys.readouterr().out
        assert store.exists()


class TestStatsMerge:
    def _write_trace(self, tmp_path, name, seed):
        workload = tmp_path / f"w{seed}.json"
        trace = tmp_path / name
        assert main([
            "generate", str(workload), "--disks", "6", "--items", "30",
            "--seed", str(seed),
        ]) == 0
        assert main([
            "plan", str(workload), "--json", "--trace-out", str(trace),
        ]) == 0
        return trace

    def test_single_trace_report(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path, "a.jsonl", 0)
        capsys.readouterr()
        assert main(["stats", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "trace OK" in out
        assert "# merged" not in out

    def test_merged_traces_sum_counters(self, tmp_path, capsys):
        import re

        traces = [
            self._write_trace(tmp_path, f"{k}.jsonl", k) for k in range(2)
        ]
        capsys.readouterr()

        def plans_count(out: str) -> int:
            return int(re.search(r"plans=(\d+)", out).group(1))

        counts = []
        for trace in traces:
            assert main(["stats", str(trace)]) == 0
            counts.append(plans_count(capsys.readouterr().out))
        assert main(["stats", *map(str, traces), "--validate"]) == 0
        merged = capsys.readouterr().out
        assert "# merged 2 traces" in merged
        assert plans_count(merged) == sum(counts)

    def test_invalid_trace_fails_validation(self, tmp_path, capsys):
        good = self._write_trace(tmp_path, "good.jsonl", 0)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "martian"}\n')
        capsys.readouterr()
        assert main(["stats", str(good), str(bad), "--validate"]) == 1
        captured = capsys.readouterr()
        assert "invalid" in captured.err
        assert "bad.jsonl" in captured.err


class TestServeCommand:
    def test_rejects_invalid_configuration(self, capsys):
        assert main(["serve", "--queue-size", "0"]) == 2
        assert "invalid serve configuration" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8423
        assert args.queue_size == 64
        assert args.concurrency == 2
        assert args.store is None


class TestSimCommand:
    SHORT = [
        "sim", "--duration", "150", "--items", "20", "--seed", "3",
    ]

    def test_campaign_prints_summary(self, capsys):
        assert main(self.SHORT) == 0
        out = capsys.readouterr().out
        assert "scheme=rep3" in out
        assert "data_loss_events" in out

    def test_report_file_is_canonical_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(self.SHORT + ["--report", str(report)]) == 0
        assert "report written to" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["schema"] == "sim-report/v1"
        assert "summary" in data

    def test_report_bytes_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.SHORT + ["--report", str(a)]) == 0
        assert main(self.SHORT + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_compare_prints_policy_table(self, capsys):
        assert main(self.SHORT + ["--compare"]) == 0
        out = capsys.readouterr().out
        for policy in ("random", "spread", "copyset"):
            assert policy in out

    def test_scripted_crash_flag(self, capsys):
        assert main(self.SHORT + ["--crash", "r0m0d0:10.0"]) == 0
        assert "incidents" in capsys.readouterr().out

    def test_invalid_config_fails(self, capsys):
        assert main(["sim", "--duration", "0"]) == 2
        assert "invalid sim configuration" in capsys.readouterr().err

    def test_trace_out_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self.SHORT + ["--trace-out", str(trace)]) == 0
        assert trace.exists()
        lines = trace.read_text().splitlines()
        assert any('"sim.run"' in line for line in lines)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
