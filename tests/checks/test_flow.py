"""Flow analyzer tests (repro.checks.flow).

Structure mirrors the rule catalog: one class per rule, each seeding a
synthetic defect into a tmp tree and asserting the finding fires — then
showing the fixed variant is clean.  The acceptance criteria live here
too: the shipped ``src/repro`` tree analyzes clean, and the canonical
JSON report is byte-identical across runs.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.checks.callgraph import build_call_graph
from repro.checks.flow import (
    BaselineError,
    FLOW_RULES,
    FlowConfig,
    _reachable,
    analyze_tree,
    load_baseline,
)
from repro.checks.lints import default_root
from repro.cli import CHECK_EXIT_EFFECTS, main as cli_main


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def rules_of(report):
    return sorted({f.rule for f in report.findings})


def analyze(root: Path, **kwargs):
    return analyze_tree(root=root, **kwargs)


class TestShippedTreeIsClean:
    def test_src_repro_has_zero_findings(self):
        report = analyze_tree()
        assert report.ok, "\n" + report.render()

    def test_every_solver_contract_is_proved_not_sampled(self):
        report = analyze_tree()
        assert report.solvers, "no registered solvers found"
        assert all(entry["status"] == "ok" for entry in report.solvers)
        # The registry mixes deterministic and randomized entries, and
        # the analyzer proves the deterministic ones transitively.
        assert any(not entry["randomized"] for entry in report.solvers)
        # A contract proves the code the pipeline runs: the registered
        # function of each kernel-backed method reaches its CSR kernel.
        graph = build_call_graph(default_root())
        function_of = {entry["solver"]: entry["function"] for entry in report.solvers}
        for solver, kernel in (
            ("even_optimal", "core.even_optimal.even_optimal_schedule_compact"),
            ("bipartite_optimal",
             "core.special_cases.bipartite_optimal_schedule_compact"),
            ("general", "core.general.general_schedule_compact"),
        ):
            reached = _reachable(graph, [function_of[solver]])
            assert kernel in reached, f"{solver} contract does not reach {kernel}"

    def test_report_is_byte_identical_across_runs(self):
        first = analyze_tree().canonical_json()
        second = analyze_tree().canonical_json()
        assert first == second
        assert first.endswith("\n")
        json.loads(first)  # well-formed

    def test_classification_covers_every_function(self):
        report = analyze_tree()
        total = sum(report.classification_counts.values())
        assert total == len(report.classifications)
        assert set(report.classification_counts) <= {
            "pure",
            "deterministic-stateful",
            "nondeterministic",
            "clock",
            "io",
        }


class TestSolverContracts:
    DETERMINISTIC_BUT_RANDOM = """
        from .registry import register_solver

        @register_solver("greedy", randomized=False)
        def solve(graph):
            return order(graph)

        def order(graph):
            import random
            edges = list(graph)
            random.shuffle(edges)
            return edges
    """

    REGISTRY = """
        def register_solver(name, randomized=False):
            def wrap(fn):
                return fn
            return wrap
    """

    def seed(self, tmp_path, body):
        write_module(tmp_path, "__init__.py", "")
        write_module(tmp_path, "registry.py", self.REGISTRY)
        write_module(tmp_path, "solvers.py", body)

    def test_transitive_randomness_violates_the_contract(self, tmp_path):
        self.seed(tmp_path, self.DETERMINISTIC_BUT_RANDOM)
        report = analyze(tmp_path)
        assert "flow-solver-nondet" in rules_of(report)
        finding = next(
            f for f in report.findings if f.rule == "flow-solver-nondet"
        )
        # The blame chain names the sink, not just the entry point.
        assert "random.shuffle" in finding.message

    def test_randomized_true_solvers_are_exempt(self, tmp_path):
        self.seed(
            tmp_path,
            self.DETERMINISTIC_BUT_RANDOM.replace(
                "randomized=False", "randomized=True"
            ),
        )
        assert analyze(tmp_path).ok

    def test_clock_reads_violate_separately(self, tmp_path):
        self.seed(
            tmp_path,
            """
            from .registry import register_solver

            @register_solver("timed", randomized=False)
            def solve(graph):
                import time
                return time.monotonic()
            """,
        )
        assert rules_of(analyze(tmp_path)) == ["flow-solver-clock"]

    def test_seeded_rng_instances_do_not_violate(self, tmp_path):
        self.seed(
            tmp_path,
            """
            import random

            from .registry import register_solver

            @register_solver("seeded", randomized=False)
            def solve(graph, seed=0):
                rng = random.Random(seed)
                edges = sorted(graph)
                rng.shuffle(edges)
                return edges
            """,
        )
        assert analyze(tmp_path).ok


class TestPlanClockContract:
    def test_clock_read_reachable_from_plan_is_flagged(self, tmp_path):
        write_module(tmp_path, "__init__.py", "")
        write_module(tmp_path, "core/__init__.py", "")
        write_module(
            tmp_path,
            "core/engine.py",
            """
            import time

            def schedule(g):
                return deadline(g)

            def deadline(g):
                return time.time()
            """,
        )
        write_module(tmp_path, "pipeline/__init__.py", "")
        write_module(
            tmp_path,
            "pipeline/planner.py",
            """
            from ..core.engine import schedule

            def plan(g):
                return schedule(g)
            """,
        )
        report = analyze(tmp_path)
        assert "flow-plan-clock" in rules_of(report)
        finding = next(f for f in report.findings if f.rule == "flow-plan-clock")
        # Blame lands on the intrinsic clock reader inside core.
        assert finding.function == "core.engine.deadline"

    def test_clock_outside_contract_packages_is_fine(self, tmp_path):
        write_module(tmp_path, "__init__.py", "")
        write_module(tmp_path, "pipeline/__init__.py", "")
        write_module(
            tmp_path,
            "pipeline/planner.py",
            """
            import time

            def plan(g):
                return stamp(g)

            def stamp(g):
                return time.time()
            """,
        )
        # pipeline is not a contract package; only core/graphs are.
        assert "flow-plan-clock" not in rules_of(analyze(tmp_path))


class TestAsyncBlocking:
    def test_sync_io_called_from_async_def(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            def load(path):
                with open(path) as fh:
                    return fh.read()

            async def handler(path):
                return load(path)
            """,
        )
        report = analyze(tmp_path)
        assert "flow-async-blocking" in rules_of(report)

    def test_run_in_executor_offload_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import asyncio

            def load(path):
                with open(path) as fh:
                    return fh.read()

            async def handler(path):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, load, path)
            """,
        )
        assert analyze(tmp_path).ok

    def test_direct_sleep_on_the_loop(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        assert "flow-async-blocking" in rules_of(analyze(tmp_path))

    def test_awaiting_an_async_callee_is_not_blocking(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import asyncio

            async def step():
                await asyncio.sleep(0)

            async def handler():
                await step()
            """,
        )
        assert analyze(tmp_path).ok


class TestAsyncUnawaited:
    def test_bare_coroutine_call_is_flagged(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            async def notify():
                pass

            async def handler():
                notify()
            """,
        )
        assert "flow-async-unawaited" in rules_of(analyze(tmp_path))

    def test_awaited_call_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            async def notify():
                pass

            async def handler():
                await notify()
            """,
        )
        assert analyze(tmp_path).ok


class TestAsyncOrphanTask:
    def test_fire_and_forget_create_task(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import asyncio

            async def work():
                pass

            async def handler():
                asyncio.create_task(work())
            """,
        )
        assert "flow-async-orphan-task" in rules_of(analyze(tmp_path))

    def test_retained_task_is_clean(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import asyncio

            async def work():
                pass

            async def handler(tasks):
                t = asyncio.create_task(work())
                tasks.add(t)
                return t
            """,
        )
        assert analyze(tmp_path).ok


class TestPoolBoundary:
    def test_lambda_submitted_to_process_pool(self, tmp_path):
        write_module(
            tmp_path,
            "sim/s.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda x: x + 1, items))
            """,
        )
        assert "flow-pool-boundary" in rules_of(analyze(tmp_path))

    def test_nested_function_submitted_to_process_pool(self, tmp_path):
        write_module(
            tmp_path,
            "sim/s.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                def work(x):
                    return x + 1

                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, x) for x in items]
            """,
        )
        assert "flow-pool-boundary" in rules_of(analyze(tmp_path))

    def test_module_level_function_is_picklable_and_clean(self, tmp_path):
        write_module(
            tmp_path,
            "sim/s.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(x):
                return x + 1

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, items))
            """,
        )
        assert analyze(tmp_path).ok

    def test_thread_pool_accepts_lambdas(self, tmp_path):
        write_module(
            tmp_path,
            "sim/s.py",
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(items):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(lambda x: x + 1, items))
            """,
        )
        assert analyze(tmp_path).ok


class TestSuppressionsAndBaseline:
    BLOCKING = """
        import time

        async def handler():
            time.sleep(1)  # repro: allow-flow-async-blocking
    """

    def test_inline_suppression_moves_finding_to_suppressed(self, tmp_path):
        write_module(tmp_path, "serve/s.py", self.BLOCKING)
        report = analyze(tmp_path)
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["flow-async-blocking"]

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            self.BLOCKING.replace(
                "allow-flow-async-blocking", "allow-flow-pool-boundary"
            ),
        )
        assert not analyze(tmp_path).ok

    def baseline_file(self, tmp_path, entries):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": entries}))
        return path

    def test_baselined_finding_does_not_fail(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        baseline = self.baseline_file(
            tmp_path,
            [
                {
                    "rule": "flow-async-blocking",
                    "function": "serve.s.handler",
                    "reason": "legacy handler, tracked in the drain rework",
                }
            ],
        )
        report = analyze(tmp_path, baseline_path=baseline)
        assert report.ok
        assert [e["rule"] for e in report.baselined] == ["flow-async-blocking"]

    def test_stale_baseline_entry_fails_the_gate(self, tmp_path):
        write_module(tmp_path, "serve/s.py", "async def handler():\n    pass\n")
        baseline = self.baseline_file(
            tmp_path,
            [
                {
                    "rule": "flow-async-blocking",
                    "function": "serve.s.handler",
                    "reason": "was fixed; entry should have been removed",
                }
            ],
        )
        report = analyze(tmp_path, baseline_path=baseline)
        assert not report.ok
        assert [(e["rule"], e["function"]) for e in report.stale_baseline] == [
            ("flow-async-blocking", "serve.s.handler")
        ]

    def test_baseline_entry_without_reason_is_rejected(self, tmp_path):
        baseline = self.baseline_file(
            tmp_path,
            [{"rule": "flow-async-blocking", "function": "f", "reason": ""}],
        )
        with pytest.raises(BaselineError):
            load_baseline(baseline)

    def test_baseline_with_unknown_rule_is_rejected(self, tmp_path):
        baseline = self.baseline_file(
            tmp_path,
            [{"rule": "flow-no-such-rule", "function": "f", "reason": "x"}],
        )
        with pytest.raises(BaselineError):
            load_baseline(baseline)

    def test_shipped_baseline_is_empty(self):
        baseline = load_baseline(
            Path(__file__).resolve().parents[2]
            / "src/repro/checks/flow_baseline.json"
        )
        assert baseline == []


class TestReportShape:
    def test_rule_catalog_is_complete(self):
        assert set(FLOW_RULES) == {
            "flow-solver-nondet",
            "flow-solver-clock",
            "flow-plan-clock",
            "flow-async-blocking",
            "flow-async-unawaited",
            "flow-async-orphan-task",
            "flow-async-shared-write",
            "flow-pool-boundary",
        }
        assert all(desc for desc in FLOW_RULES.values())

    def test_findings_sort_stably_in_the_report(self, tmp_path):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import time

            async def b():
                time.sleep(1)

            async def a():
                time.sleep(1)
            """,
        )
        payload = json.loads(analyze(tmp_path).canonical_json())
        lines = [f["line"] for f in payload["findings"]]
        assert lines == sorted(lines)
        assert all(not Path(f["path"]).is_absolute() for f in payload["findings"])

    def test_config_is_adjustable(self, tmp_path):
        write_module(tmp_path, "__init__.py", "")
        write_module(
            tmp_path,
            "sched/engine.py",
            """
            import time

            def plan(g):
                return time.time()
            """,
        )
        config = FlowConfig(
            contract_packages=("sched",), plan_roots=("sched.engine.plan",)
        )
        report = analyze(tmp_path, config=config)
        assert "flow-plan-clock" in rules_of(report)


class TestCliEffectsGate:
    def test_effects_gate_exit_code_on_findings(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "serve/s.py",
            """
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        code = cli_main(["check", "--effects", "--root", str(tmp_path)])
        assert code == CHECK_EXIT_EFFECTS

    def test_effects_gate_clean_tree_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "serve/s.py", "def f():\n    pass\n")
        assert cli_main(["check", "--effects", "--root", str(tmp_path)]) == 0

    def test_json_summary_shape(self, tmp_path, capsys):
        write_module(tmp_path, "serve/s.py", "def f():\n    pass\n")
        cli_main(["check", "--effects", "--json", "--root", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        gate = payload["gates"]["effects"]
        assert gate["ok"] is True
        assert gate["findings"] == 0
        assert "classification_counts" in gate

    def test_flow_report_file_is_written(self, tmp_path, capsys):
        write_module(tmp_path, "serve/s.py", "def f():\n    pass\n")
        out = tmp_path / "flow.json"
        cli_main(
            [
                "check",
                "--effects",
                "--root",
                str(tmp_path),
                "--flow-report",
                str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
