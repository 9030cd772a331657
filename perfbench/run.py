"""One benchmark for planning, replanning and serving.

Run from the repository root::

    python3 perfbench/run.py --workload plan-even --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload replan-delta --trace 1   # per-layer table
    python3 perfbench/run.py --self-test                         # tiny sizes, seconds
    python3 perfbench/run.py --workload plan-odd --repeat-check  # exact-repeat check

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` (tracing off), the per-layer metrics with ``--trace 1``.
Everything above it is a human-readable report.

Seeds: :data:`DEFAULT_SEED` is the default; :data:`HELD_OUT_SEED` is
reserved for confirming a later claim and must not be used while a
change is being written.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOAD_NAMES = ("plan-even", "plan-odd", "replan-delta", "serve-mixed")
#: the workloads BENCHMARK.json lists.  replan-delta stays out while the
#: program fails it: ``core.delta.apply_delta`` matches removes and
#: retargets without regard to direction, so its ticks fail the directed
#: ledger check and its runs report ``correct: false``.
LISTED = ("plan-even", "plan-odd", "serve-mixed")
#: set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: what every set-up imports in a fresh interpreter: the program modules
#: the workloads call.
IMPORTS = "import repro, repro.checks.certify, repro.serve.protocol, repro.workloads.io"

#: (name, unit) of every end-to-end metric, printed with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds_over_lb", "ratio"),
    ("plan_items_per_s", "items/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)

#: self-time spans reported per op, then counts, then run shares.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("pipeline.normalize.self_s", "s/op"),
    ("pipeline.decompose.self_s", "s/op"),
    ("pipeline.decompose.components", "count/op"),
    ("pipeline.select.self_s", "s/op"),
    ("pipeline.merge.self_s", "s/op"),
    ("canonical.fingerprint.self_s", "s/op"),
    ("canonical.fingerprint.calls", "count/op"),
    ("canonical.tokens.self_s", "s/op"),
    ("pipeline.solve_job.self_s", "s/op"),
    ("pipeline.solve_job.calls", "count/op"),
    ("pipeline.solve.attempts", "count/op"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.plan_lookups", "count/op"),
    ("cache.bound_hit_ratio", "ratio"),
    ("cache.bound_lookups", "count/op"),
    ("delta.apply.self_s", "s/op"),
    ("delta.patch.self_s", "s/op"),
    ("delta.reused", "count/op"),
    ("delta.patched", "count/op"),
    ("delta.resolved", "count/op"),
    ("delta.patched_edges", "count/op"),
    ("delta.fallbacks", "count/op"),
    ("array_backend.lower.self_s", "s/op"),
    ("array_backend.lift.self_s", "s/op"),
    ("even_optimal.self_s", "s/op"),
    ("euler.orientation.self_s", "s/op"),
    ("matching.peeler_init.self_s", "s/op"),
    ("matching.peel.self_s", "s/op"),
    ("matching.peel.calls", "count/op"),
    ("general.self_s", "s/op"),
    ("general.sweeps", "count/op"),
    ("general.flips_attempted", "count/op"),
    ("general.palette_growths", "count/op"),
    ("general.phase2_edges", "count/op"),
    ("lower_bounds.lb2_exact.self_s", "s/op"),
    ("lower_bounds.lb2_exact.calls", "count/op"),
    ("lower_bounds.lb2_heuristic.self_s", "s/op"),
    ("certify.make_certificate.self_s", "s/op"),
    ("certify.verify.self_s", "s/op"),
    ("certify.patch.self_s", "s/op"),
    ("exact.solve.self_s", "s/op"),
    ("exact.solve.calls", "count/op"),
    ("schedule.validate.self_s", "s/op"),
    ("schedule.validate.calls", "count/op"),
    ("serve.admitted", "count/op"),
    ("serve.coalesced", "count/op"),
    ("serve.rejected", "count/op"),
    ("serve.failed", "count/op"),
    ("serve.server_p50_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.solve.self_s", "s/op"),
    ("serve.queue_wait_s", "s/op"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead_share", "ratio"),
)

def percentile_tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or
    the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n}"


def end_to_end(setup_s: float, out: Any) -> Dict[str, float]:
    seconds = sum(out.op_seconds)
    rss = out.peak_rss_mb
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = out.measured_seconds or seconds
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "rounds_over_lb": out.rounds / out.bound if out.bound else 0.0,
        "plan_items_per_s": sum(out.op_items) / seconds,
        "op_p50_ms": statistics.median(out.op_seconds) * 1000.0,
        "op_tail_ms": percentile_tail(out.op_seconds)[0] * 1000.0,
        "ops_per_s": len(out.op_seconds) / wall,
    }


def per_layer(out: Any, tracer: Any) -> Dict[str, float]:
    n = max(1, len(out.op_seconds))
    c = out.counters
    metrics: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for name, value in tracer.self_s.items():
        metrics[f"{name}.self_s"] = value / n
    for name, _unit in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = tracer.calls[name[: -len(".calls")]] / n
    for name, value in tracer.counts.items():
        metrics[name] = value / n
    metrics["pipeline.decompose.components"] = c.get("components", 0) / n
    plan_lookups = c.get("cache.plan_hits", 0) + c.get("cache.plan_misses", 0)
    bound_lookups = c.get("cache.bound_hits", 0) + c.get("cache.bound_misses", 0)
    metrics["cache.plan_lookups"] = plan_lookups / n
    metrics["cache.bound_lookups"] = bound_lookups / n
    metrics["cache.plan_hit_ratio"] = c.get("cache.plan_hits", 0) / plan_lookups if plan_lookups else 0.0
    metrics["cache.bound_hit_ratio"] = c.get("cache.bound_hits", 0) / bound_lookups if bound_lookups else 0.0
    for key in ("reused", "patched", "resolved", "patched_edges", "fallbacks"):
        metrics[f"delta.{key}"] = c.get(key, 0) / n
    metrics.update(out.layers)
    op_total = sum(out.op_seconds)
    if "serve.solve.self_s" in out.layers:
        server = (out.layers["serve.solve.self_s"] + out.layers["serve.queue_wait_s"]) * n
        metrics["unattributed_share"] = 1.0 - server / op_total
    else:
        metrics["unattributed_share"] = tracer.unattributed / op_total
    return metrics


def repeat_counters(out: Any, tracer: Any) -> Dict[str, Any]:
    """Timing-independent counters plus a digest over every op's
    output digest; two runs of one seed must agree exactly."""
    counters: Dict[str, Any] = dict(out.counters)
    counters["attempted"] = out.attempted
    counters["failed"] = out.failed
    counters["outputs"] = hashlib.sha256("\n".join(out.digests).encode()).hexdigest()
    if tracer is not None:
        counters.update({f"calls.{k}": v for k, v in tracer.calls.items()})
        counters.update({f"count.{k}": v for k, v in tracer.counts.items()})
    return counters


def print_layer_table(out: Any, tracer: Any, metrics: Dict[str, float]) -> None:
    n = max(1, len(out.op_seconds))
    op_s = sum(out.op_seconds) / n
    print(f"per-layer self time per op (traced op time {op_s * 1000:.2f} ms):")
    if "serve.solve.self_s" in out.layers:
        rows = [("serve.queue_wait", metrics["serve.queue_wait_s"]),
                ("serve.solve", metrics["serve.solve.self_s"])]
        rest = op_s - sum(v for _k, v in rows)
    else:
        rows = [(name, tracer.self_s[name] / n) for name in tracer.self_s]
        rest = tracer.unattributed / n
    for name, value in rows:
        print(f"  {name:<34} {value * 1000:10.3f} ms  {value / op_s:7.1%}")
    print(f"  {'unattributed':<34} {rest * 1000:10.3f} ms  {rest / op_s:7.1%}")
    total = sum(v for _k, v in rows) + rest
    print(f"  {'sum (= traced op time)':<34} {total * 1000:10.3f} ms")
    print(f"tracing overhead: {metrics['tracing_overhead_share']:+.2%} of untraced op time")


def run(args: argparse.Namespace) -> int:
    from perfbench.layers import LayerTracer
    from perfbench.reference import REFERENCE_S, Clock
    from perfbench.workloads import WORKLOADS

    imported = time.perf_counter() - STARTED
    workload = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Set-up times are scaled to the reference speed like op times.
    clock = Clock((workload.work_cpu,))
    setups: List[float] = []
    setups_wall: List[float] = []
    state: Any = None
    for k in range(SETUPS):
        state = None  # the previous set-up's inputs are freed first
        start = time.perf_counter()
        # Each set-up imports the program in a fresh interpreter, so
        # import-time work counts in every set-up's time, not just once.
        subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT, env=env, check=True)
        state = workload.setup(args.seed, args.seconds, args.tiny)
        setups_wall.append(time.perf_counter() - start)
        setups.append(setups_wall[-1] * clock.factor())
        if k < SETUPS - 1 and hasattr(workload, "teardown"):
            workload.teardown(state)
    setup_s = statistics.median(setups)

    tracer = LayerTracer() if args.trace else None
    out = workload.run(state, tracer)
    if not out.op_seconds:
        print(f"no op completed: {out.problems[:3]}", file=sys.stderr)
        return 1

    counters = repeat_counters(out, tracer)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"ops attempted {out.attempted}  failed {out.failed}  "
          f"error_rate {out.failed / max(1, out.attempted):.4f}")
    for problem in out.problems[:10]:
        print(f"  check failed: {problem}")
    if len(out.problems) > 10:
        print(f"  ... {len(out.problems) - 10} more")
    print(f"counters {json.dumps(counters, sort_keys=True)}")
    if args.trace:
        metrics = per_layer(out, tracer)
        print_layer_table(out, tracer, metrics)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setup_s, out)
        print(f"wall: set-ups {[round(s, 3) for s in setups_wall]} s "
              f"(this process's imports {imported:.3f} s), "
              f"op p50 {statistics.median(out.op_wall) * 1000:.2f} ms, "
              f"op tail {percentile_tail(out.op_wall)[0] * 1000:.2f} ms")
        print(f"scaled to the reference speed ({REFERENCE_S * 1000:.0f} ms kernel): "
              f"set-ups {[round(s, 3) for s in setups]} s")
        print(f"op tail is the {percentile_tail(out.op_seconds)[1]} ops")
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances: a run takes seconds (self-test)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run twice under different PYTHONHASHSEEDs and "
                             "compare the timing-independent counters")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a started server is stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.self_test:
        from perfbench.selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat_check:
        return repeat_check(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    return run(args)


def invoke(workload: str, seed: int, seconds: float, trace: int, tiny: bool,
           hashseed: str = "0") -> Tuple[str, Dict[str, Any]]:
    """One run in a child process: its report and its JSON line."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def repeat_check(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> int:
    """Two runs of one seed, under PYTHONHASHSEED 0 and 1, must report
    identical timing-independent counters and output digests."""
    runs = []
    for hashseed in ("0", "1"):
        report, _result = invoke(workload, seed, seconds, trace, tiny, hashseed)
        line = next(l for l in report.splitlines() if l.startswith("counters "))
        runs.append(json.loads(line.split(" ", 1)[1]))
    differ = sorted(k for k in set(runs[0]) | set(runs[1]) if runs[0].get(k) != runs[1].get(k))
    for key in differ:
        print(f"  {key}: {runs[0].get(key)!r} != {runs[1].get(key)!r}")
    print(f"{workload}: " + ("UNSTEADY: counters differ between repeats" if differ else
                             f"steady ({len(runs[0])} counters, outputs {runs[0]['outputs'][:12]})"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
