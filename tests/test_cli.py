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

    def test_bad_line_rejected(self, tmp_path, capsys):
        moves = tmp_path / "moves.txt"
        moves.write_text("a,b,c,d\n")
        assert main(["schedule", str(moves)]) == 2
        assert "line 1: cannot parse" in capsys.readouterr().err

    def test_method_flag(self, tmp_path, capsys):
        moves = tmp_path / "moves.txt"
        moves.write_text("a,b\ncap,a,2\ncap,b,2\n")
        assert main(["schedule", str(moves), "--method", "even_optimal"]) == 0
        assert "method=even_optimal" in capsys.readouterr().out


_VALID_INSTANCE = {
    "format": "repro-migration-instance",
    "version": 1,
    "nodes": ["a", "b"],
    "capacities": {"a": 1, "b": 1},
    "moves": [["a", "b"]],
}

#: (file name, content or None for a path that does not exist)
_BAD_INSTANCE_FILES = (
    ("list.json", "[1, 2]"),
    ("no-nodes.json", json.dumps({"format": "repro-migration-instance", "version": 1})),
    ("one-element-move.json", json.dumps({**_VALID_INSTANCE, "moves": [["a"]]})),
    ("wrong-format.json", json.dumps({**_VALID_INSTANCE, "format": "other"})),
    ("absent.json", None),
    ("not-utf8.json", b"\xff\xfe{"),
)


def _write(path, content):
    """Write ``content`` (text or bytes) to ``path``; None writes nothing."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)

#: every command that reads an instance file; ``{}`` is the path.
_INSTANCE_COMMANDS = (
    ("plan", "{}", "--json"),
    ("schedule", "{}", "--json"),
    ("gantt", "{}"),
    ("check", "--certify", "{}"),
)

MALFORMED_INPUT_CASES = [
    pytest.param(command, name, content, id=f"{command[0]}-{name}")
    for command in _INSTANCE_COMMANDS
    for name, content in _BAD_INSTANCE_FILES
] + [
    pytest.param(("plan", "{}"), "bad-cap.txt", "cap,a,x\na,b\n", id="plan-bad-cap"),
    pytest.param(
        ("schedule", "{}"), "bad-cap.txt", "cap,a,x\na,b\n", id="schedule-bad-cap"
    ),
    pytest.param(("plan", "{}"), "bin.txt", b"\xff\xfe{", id="plan-not-utf8-moves"),
    pytest.param(
        ("schedule", "{}"), "bin.txt", b"a,b\n\xff\n", id="schedule-not-utf8-moves"
    ),
]


def _assert_one_error_line(capsys, path):
    """Stderr is one ``error: PATH: ...`` line, which is returned."""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err
    return err


class TestMalformedInput:
    @pytest.mark.parametrize("command, name, content", MALFORMED_INPUT_CASES)
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command, name, content):
        path = tmp_path / name
        _write(path, content)
        argv = [str(path) if arg == "{}" else arg for arg in command]
        assert main(argv) == 2
        _assert_one_error_line(capsys, path)


#: Two parallel moves, so edge ids 0 and 1.
_TWO_MOVES = {**_VALID_INSTANCE, "moves": [["a", "b"], ["a", "b"]]}


def _objective(kind="bounded_color", **fields):
    payload = {"format": "repro-objective", "version": 1, "kind": kind, **fields}
    return json.dumps(payload)


#: (file name, content or None) that ``plan --objective`` must refuse
#: for :data:`_TWO_MOVES`: missing, malformed, or not fitting it.
_BAD_OBJECTIVE_FILES = (
    ("absent.json", None),
    ("window-int.json", _objective(allowed={"0": 5, "1": [0]})),
    ("key-str.json", _objective(allowed={"x": [0], "1": [0]})),
    ("round-str.json", _objective(allowed={"0": ["x"], "1": [0]})),
    (
        "weight-str.json",
        _objective(
            "group_completion", groups={"0": "g", "1": "g"}, weights={"g": "heavy"}
        ),
    ),
    ("misfit.json", _objective(allowed={"0": [0]})),
)

#: (file name, content or None) that ``stats`` must refuse.
_BAD_TRACE_FILES = (
    ("absent.jsonl", None),
    ("truncated.jsonl", '{"kind": "meta", "schema": 1}\n{"kind": "span"\n'),
    ("array.jsonl", '{"kind": "meta", "schema": 1}\n[1]\n'),
)


class TestMalformedObjectiveAndTrace:
    @pytest.mark.parametrize(
        "name, content", _BAD_OBJECTIVE_FILES, ids=[n for n, _ in _BAD_OBJECTIVE_FILES]
    )
    def test_plan_objective_exits_2(self, tmp_path, capsys, name, content):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(_TWO_MOVES))
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        argv = ["plan", str(instance), "--json", "--objective", str(path)]
        assert main(argv) == 2
        _assert_one_error_line(capsys, path)

    @pytest.mark.parametrize("validate", [False, True], ids=["plain", "validate"])
    @pytest.mark.parametrize(
        "name, content", _BAD_TRACE_FILES, ids=[n for n, _ in _BAD_TRACE_FILES]
    )
    def test_stats_exits_2(self, tmp_path, capsys, name, content, validate):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        assert main(["stats", str(path)] + (["--validate"] if validate else [])) == 2
        _assert_one_error_line(capsys, path)

    def test_stats_mistyped_record_exits_2(self, tmp_path, capsys):
        """Without ``--validate`` each record is shape-checked before it
        is folded: a string ``wall`` is reported, not a traceback."""
        path = tmp_path / "mistyped.jsonl"
        record = {
            "kind": "span", "name": "pipeline.stage.x", "span": 1,
            "parent": None, "t0": 0.0, "wall": "slow", "cpu": 0.0, "attrs": {},
        }
        path.write_text(json.dumps({"kind": "meta", "schema": 1}) + "\n"
                        + json.dumps(record) + "\n")
        assert main(["stats", str(path)]) == 2
        err = _assert_one_error_line(capsys, path)
        assert "record 1: span 'wall' must be a number" in err

    @pytest.mark.parametrize("validate", [False, True], ids=["plain", "validate"])
    def test_stats_refuses_a_mistyped_round_attr(self, tmp_path, capsys, validate):
        """A round span's counts are checked before they are folded: a
        string count is reported, not a traceback or a coerced row."""
        path = tmp_path / "round.jsonl"
        record = {
            "kind": "span", "name": "runtime.round", "span": 1, "parent": None,
            "t0": 0.0, "wall": 0.5, "cpu": 0.1,
            "attrs": {"round": 0, "attempted": "many"},
        }
        path.write_text(json.dumps({"kind": "meta", "schema": 1}) + "\n"
                        + json.dumps(record) + "\n")
        problem = "record 1: round attr 'attempted' must be an int >= 0"
        if validate:
            assert main(["stats", str(path), "--validate"]) == 1
            err = capsys.readouterr().err
            assert err == f"invalid ({path}): {problem}\n"
        else:
            assert main(["stats", str(path)]) == 2
            assert problem in _assert_one_error_line(capsys, path)

    def test_stats_folds_a_trace_missing_parents(self, tmp_path, capsys):
        """The span-forest check stays behind ``--validate``: a killed
        run's trace, whose parent spans were never written, still folds."""
        path = tmp_path / "killed.jsonl"
        record = {
            "kind": "span", "name": "pipeline.stage.solve", "span": 2,
            "parent": 1, "t0": 0.0, "wall": 0.5, "cpu": 0.5, "attrs": {},
        }
        path.write_text(json.dumps({"kind": "meta", "schema": 1}) + "\n"
                        + json.dumps(record) + "\n")
        assert main(["stats", str(path)]) == 0
        assert "solve" in capsys.readouterr().out
        assert main(["stats", str(path), "--validate"]) == 1
        assert "parent 1 not in trace" in capsys.readouterr().err


class TestCheckCertify:
    def test_prints_the_certificate_it_verified(self, tmp_path, capsys):
        from repro.checks.certify import certificate_from_json, verify_certificate
        from repro.workloads.io import load_instance

        path = tmp_path / "inst.json"
        assert main(["generate", str(path), "--disks", "8", "--items", "40",
                     "--seed", "2"]) == 0
        capsys.readouterr()
        assert main(["check", "--certify", str(path)]) == 0
        summary, _, body = capsys.readouterr().out.partition("\n")
        bound = int(summary.split("verified lower bound: ")[1].split(";")[0])
        payload = json.loads(body)
        assert payload["bound"] == bound
        assert payload["lb2"] is not None
        instance = load_instance(str(path))
        certificate = certificate_from_json(payload, instance)
        assert verify_certificate(instance, certificate) == bound


class TestDemoCommand:
    @pytest.mark.parametrize("scenario", ["vod", "scale-out", "decommission"])
    def test_all_scenarios_run(self, scenario, capsys):
        assert main(["demo", scenario, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rounds=" in out
        assert "simulated_time=" in out

    def test_unit_time_model_counts_rounds(self, capsys):
        assert main(["demo", "scale-out", "--seed", "1", "--time-model", "unit"]) == 0
        assert "rounds=13 simulated_time=13.00 migrated=104" in capsys.readouterr().out
        assert main(["demo", "scale-out", "--seed", "1"]) == 0
        assert "rounds=13 simulated_time=20.00 migrated=104" in capsys.readouterr().out


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


def _exit_code(argv):
    """``main``'s status, also when argparse rejects ``argv`` by
    raising ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


#: ``run`` fault flags that describe no valid fault plan, with what
#: the last error line must say.  Flags are the only place fault plans
#: come from, so these are the fault plan's input checks.
_BAD_FAULT_FLAGS = [
    pytest.param(["--crash", "new-2"], "is not DISK:TIME", id="crash-no-time"),
    pytest.param(["--crash", "new-2:soon"], "is not DISK:TIME", id="crash-time-str"),
    pytest.param(["--crash", "new-2:-3"], "crash time must be", id="crash-time-negative"),
    pytest.param(["--crash", "new-2:nan"], "crash time must be", id="crash-time-nan"),
    pytest.param(["--crash", "new-2:inf"], "crash time must be", id="crash-time-inf"),
    pytest.param(
        ["--crash", "new-2:1", "--crash", "new-2:2"],
        "duplicate crash target",
        id="crash-twice",
    ),
    pytest.param(["--partition", "1:2"], "is not START:END", id="partition-no-group"),
    pytest.param(
        ["--partition", "a:2:mid-1"], "is not START:END", id="partition-bound-str"
    ),
    pytest.param(
        ["--partition", "6:2:mid-1"], "window is empty", id="partition-empty-window"
    ),
    pytest.param(
        ["--partition", "1:2:,"], "at least one disk", id="partition-empty-group"
    ),
    pytest.param(
        ["--crash", "nosuch:5"], "'nosuch' is not in the decommission scenario",
        id="crash-unknown-disk",
    ),
    pytest.param(
        ["--partition", "2:6:mid-1,nosuch"], "'nosuch' is not in the decommission",
        id="partition-unknown-disk",
    ),
    pytest.param(["--timeout", "nan"], "transfer_timeout must be", id="timeout-nan"),
    pytest.param(["--timeout", "inf"], "transfer_timeout must be", id="timeout-inf"),
    pytest.param(
        ["--partition", "1:2:mid-1,mid-1"], "duplicate disks", id="partition-disk-twice"
    ),
    pytest.param(
        ["--partition", "nan:6:mid-1"], "must be finite", id="partition-start-nan"
    ),
    pytest.param(["--fault-rate", "high"], "invalid float value", id="rate-str"),
    pytest.param(["--fault-rate", "1.0"], "transfer_failure_rate", id="rate-one"),
    pytest.param(["--fault-rate", "nan"], "transfer_failure_rate", id="rate-nan"),
]


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

    @pytest.mark.parametrize("flags, reason", _BAD_FAULT_FLAGS)
    def test_bad_fault_flags_exit_2(self, capsys, flags, reason):
        assert _exit_code(["run", "decommission", "--seed", "1"] + flags) == 2
        err = capsys.readouterr().err
        assert reason in err.splitlines()[-1]
        assert "Traceback" not in err

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

    def test_resumed_trace_validates(self, tmp_path, capsys):
        """A trace appended to by a resumed run stays one valid span
        forest, so ``stats --validate`` accepts it."""
        ckpt, trace = tmp_path / "run.ckpt", tmp_path / "run.jsonl"
        args = [
            "run", "decommission", "--seed", "1", "--fault-rate", "0.15",
            "--crash", "new-2:5.0", "--partition", "2:6:mid-1",
            "--checkpoint", str(ckpt), "--trace-out", str(trace),
        ]
        assert main(args + ["--max-rounds", "10"]) == 3
        assert main(args) == 0
        capsys.readouterr()
        assert main(["stats", str(trace), "--validate"]) == 0
        assert "trace OK" in capsys.readouterr().out

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


def _bad_store(path, kind):
    """Make at ``path`` a store that ``--store`` must refuse."""
    import sqlite3

    from repro.serve.store import PlanStore

    if kind == "text-file":
        path.write_text("not a database\n")
        return
    if kind == "directory":  # as an old JSONL plan store was
        path.mkdir()
        return
    PlanStore(str(path)).close()
    conn = sqlite3.connect(str(path))
    if kind in ("wrong-version", "format-1"):
        version = "99" if kind == "wrong-version" else "1"
        conn.execute("UPDATE meta SET value = ? WHERE key = 'format_version'", (version,))
    else:
        conn.execute("INSERT INTO plans (key, payload) VALUES ('k', '{oops')")
    conn.commit()
    conn.close()


#: ``format-1`` is a store from before plans were keyed by the
#: requested method.
_BAD_STORES = ("text-file", "directory", "wrong-version", "format-1", "corrupt-record")


class TestBadStore:
    """``plan``, ``run`` and ``serve`` refuse a store they cannot open or
    warm with one error line and exit 2, before any trace file is
    written or port bound."""

    @pytest.fixture
    def refuse_to_bind(self, monkeypatch):
        import asyncio

        async def must_not_bind(*args, **kwargs):
            raise AssertionError("serve bound a port on a refused store")

        monkeypatch.setattr(asyncio, "start_server", must_not_bind)

    @pytest.mark.parametrize("kind", _BAD_STORES)
    @pytest.mark.parametrize("command", ["plan", "run", "serve"])
    def test_exits_2_with_one_error_line(
        self, tmp_path, capsys, refuse_to_bind, command, kind
    ):
        store = tmp_path / ("plans" if kind == "directory" else "plans.db")
        _bad_store(store, kind)
        trace = tmp_path / "trace.jsonl"
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(_VALID_INSTANCE))
        argv = {
            "plan": ["plan", str(instance), "--json"],
            "run": ["run", "decommission", "--seed", "1"],
            "serve": ["serve", "--port", "0"],
        }[command]
        assert main(argv + ["--store", str(store), "--trace-out", str(trace)]) == 2
        _assert_one_error_line(capsys, store)
        assert not trace.exists()


def _tamper_slot(path):
    """Rewrite one stored token to slot 7 of a pair with fewer than 8
    items: the record still decodes, but names a pair slot its
    component lacks."""
    import sqlite3
    from collections import Counter

    conn = sqlite3.connect(str(path))
    key, payload = conn.execute("SELECT key, payload FROM plans ORDER BY key").fetchone()
    record = json.loads(payload)
    items = Counter((u, v) for rnd in record["rounds"] for u, v, _ in rnd)
    token = next(t for rnd in record["rounds"] for t in rnd if items[t[0], t[1]] < 8)
    token[2] = 7
    conn.execute("UPDATE plans SET payload = ? WHERE key = ?", (json.dumps(record), key))
    conn.commit()
    conn.close()


class TestStoredPlanThatDoesNotFit:
    """``plan`` and ``run`` on a store whose record names a pair slot
    its component lacks close the store and exit 2 with one error
    line, with no traceback."""

    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        store = tmp_path / "plans.db"
        instance = tmp_path / "instance.json"
        assert main(["generate", str(instance), "--disks", "4", "--items", "6"]) == 0
        argv = {
            "plan": ["plan", str(instance), "--json"],
            "run": ["run", "decommission", "--seed", "1"],
        }[command] + ["--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        _tamper_slot(store)
        trace = tmp_path / "trace.jsonl"
        assert main(argv + ["--trace-out", str(trace)]) == 2
        err = _assert_one_error_line(capsys, store)
        assert ", 7) names no pair slot of this instance" in err


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

    @pytest.mark.parametrize("timeout", ["nan", "-1"])
    def test_rejects_a_timeout_that_is_not_finite_and_positive(
        self, capsys, monkeypatch, timeout
    ):
        async def must_not_serve(config):
            raise AssertionError("serve started on a bad configuration")

        monkeypatch.setattr("repro.serve.server.serve", must_not_serve)
        assert main(["serve", "--timeout", timeout]) == 2
        assert "default_timeout must be" in capsys.readouterr().err

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

    def test_nan_crash_time_exits_2(self, capsys):
        """``sim --crash`` shares the ``run`` parser: a NaN time, which
        would never fire, is refused."""
        assert _exit_code(self.SHORT + ["--crash", "r0m0d0:nan"]) == 2
        err = capsys.readouterr().err
        assert "crash time must be a finite number" in err.splitlines()[-1]

    def test_invalid_config_fails(self, capsys):
        assert main(["sim", "--duration", "0"]) == 2
        assert "invalid sim configuration" in capsys.readouterr().err

    def test_unknown_crash_disk_exits_2(self, capsys):
        assert main(self.SHORT + ["--crash", "nosuch:5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid sim configuration: crash disk 'nosuch'")
        assert len(err.splitlines()) == 1

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
