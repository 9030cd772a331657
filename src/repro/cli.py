"""Command-line interface: ``repro-migrate``.

Subcommands:

* ``schedule`` — read moves from a CSV-ish file (``src,dst`` per line)
  plus capacities, or a JSON instance (``--json``), print the schedule.
* ``plan`` — run the staged planning pipeline on the same inputs and
  report what it did: per-stage timings, per-component solver
  attribution, cache hits, and (``--certify``) the verified lower
  bound.
* ``demo`` — plan a named scenario and replay the schedule fault-free
  through :class:`repro.runtime.MigrationExecutor` (``--time-model``
  picks unit rounds or Figure 2 bandwidth splitting; ``--list``
  enumerates the scenarios).
* ``run`` — supervised execution of a scenario through
  :mod:`repro.runtime`: fault injection, retry/replan policy, JSONL
  tracing, and checkpointing (``--checkpoint`` resumes a killed run).
* ``compare`` — run all schedulers on a generated workload and print
  the comparison table.
* ``generate`` — write a generated workload to a JSON instance file
  for archiving/replay.
* ``gantt`` — schedule a JSON instance and render the per-disk round
  Gantt chart.
* ``serve`` — stand the planner up as a long-lived asyncio service
  (:mod:`repro.serve`): JSON-over-HTTP plan/certify endpoints with
  request coalescing and backpressure, ``/healthz`` + ``/metrics``,
  an optional persistent plan store, and graceful SIGTERM drain.
* ``stats`` — summarize one or more :mod:`repro.obs` JSONL traces
  (written by ``plan --trace-out``, ``run --trace-out`` or ``serve
  --trace-out``) into a single aggregate report: per-stage and
  per-solver timings, per-round execution numbers, counters;
  ``--validate`` checks each trace against the wire schema first.
* ``fuzz`` — cross-validate all schedulers on randomized instances.
* ``check`` — correctness tooling (:mod:`repro.checks`): determinism
  linter, mypy strict gate, cross-``PYTHONHASHSEED`` harness, the
  exact-vs-heuristic battery (``--engine``), and independent schedule
  certification (``--certify``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.metrics import compare_methods
from repro.analysis.tables import Table
from repro.core.errors import InvalidInstanceError
from repro.core.problem import MigrationInstance
from repro.pipeline.planner import StoredPlanMismatchError, plan
from repro.pipeline.registry import solver_names
from repro.workloads.generators import random_instance
from repro.workloads.scenarios import (
    decommission_scenario,
    scale_out_scenario,
    sensor_harvest_scenario,
    vod_rebalance_scenario,
)

#: Every ``--method`` choice: automatic selection, then the registry.
_METHODS = ("auto",) + solver_names()

_SCENARIOS = {
    "vod": vod_rebalance_scenario,
    "scale-out": scale_out_scenario,
    "decommission": decommission_scenario,
    "sensor-harvest": sensor_harvest_scenario,
}


def _parse_moves_file(path: str) -> Tuple[List[Tuple[str, str]], Dict[str, int]]:
    """Parse a moves file.

    Lines are either ``src,dst`` (one item to move) or
    ``cap,<disk>,<c_v>`` (a transfer constraint); ``#`` starts a
    comment.  Disks without an explicit constraint default to 1.

    Raises:
        InvalidInstanceError: for text that is not UTF-8, a line of
            neither shape or a non-integer ``c_v`` (the message names
            the line).
    """
    moves: List[Tuple[str, str]] = []
    caps: Dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError:
            raise InvalidInstanceError("not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0] == "cap" and len(parts) == 3:
            try:
                caps[parts[1]] = int(parts[2])
            except ValueError:
                raise InvalidInstanceError(
                    f"line {lineno}: capacity {parts[2]!r} is not an int"
                ) from None
        elif len(parts) == 2:
            moves.append((parts[0], parts[1]))
        else:
            raise InvalidInstanceError(
                f"line {lineno}: cannot parse {raw.rstrip()!r}"
            )
    return moves, caps


def _input_error(path: str, exc: Union[Exception, str]) -> int:
    """Report an unreadable or malformed input file; exit code 2."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"error: {path}: {reason}", file=sys.stderr)
    return 2


def _load_cli_instance(args: argparse.Namespace) -> MigrationInstance:
    """Shared ``schedule``/``plan`` input handling."""
    if args.json:
        from repro.workloads.io import load_instance

        return load_instance(args.moves_file)
    moves, caps = _parse_moves_file(args.moves_file)
    disks = {d for pair in moves for d in pair}
    capacities = {d: caps.get(d, args.default_capacity) for d in disks}
    return MigrationInstance.from_moves(moves, capacities)


def _open_tracer(path: Optional[str], append: bool = False):
    """Build a JSONL-backed tracer, or None when no path was given."""
    if not path:
        return None
    from repro.obs import JsonlExporter, Tracer

    return Tracer(JsonlExporter(path, append=append))


def _cmd_schedule(args: argparse.Namespace) -> int:
    try:
        instance = _load_cli_instance(args)
    except (InvalidInstanceError, OSError) as exc:
        return _input_error(args.moves_file, exc)
    schedule = plan(instance, method=args.method).schedule
    print(f"# method={schedule.method} rounds={schedule.num_rounds}")
    graph = instance.graph
    for i, rnd in enumerate(schedule.rounds):
        printable = ", ".join(
            "->".join(map(str, graph.endpoints(eid))) for eid in sorted(rnd)
        )
        print(f"round {i}: {printable}")
    return 0


def _open_plan_cache(store_path: Optional[str], no_cache: bool = False):
    """A (possibly store-backed, warmed) PlanCache plus its store.

    Returns ``(cache, store)``; the caller must ``close`` the store
    when done.  ``--store`` overrides ``--no-cache`` — a persistent
    store is pointless without a cache in front of it.  None means
    'bail': a store that cannot be opened or warmed was reported as
    one ``error: PATH: reason`` line.
    """
    from repro.pipeline import PlanCache

    if not store_path:
        return (None if no_cache else PlanCache()), None
    from repro.serve.store import PlanStore, PlanStoreError

    store = None
    try:
        store = PlanStore(store_path)
        cache = PlanCache(store=store)
        cache.warm()
    except PlanStoreError as exc:
        if store is not None:
            store.close()
        _input_error(store_path, exc)
        return None
    return cache, store


def _store_mismatch(path: str, store: Any, tracer: Any, exc: Exception) -> int:
    """A ``--store`` record that does not fit its component: close the
    store and tracer, report one ``error: PATH: ...`` line, exit 2."""
    store.close()
    if tracer is not None:
        tracer.close()
    return _input_error(path, exc)


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        instance = _load_cli_instance(args)
    except (InvalidInstanceError, OSError) as exc:
        return _input_error(args.moves_file, exc)
    objective = None
    if args.objective:
        from repro.core.objectives import ObjectiveError, load_objective

        try:
            objective = load_objective(args.objective)
            objective.validate(instance)
        except (ObjectiveError, OSError, UnicodeDecodeError) as exc:
            return _input_error(args.objective, exc)
    opened = _open_plan_cache(args.store, args.no_cache)
    if opened is None:
        return 2
    cache, store = opened
    tracer = _open_tracer(args.trace_out)
    try:
        result = plan(
            instance,
            method=args.method,
            seed=args.seed,
            cache=cache,
            certify=args.certify,
            tracer=tracer,
            objective=objective,
        )
    except StoredPlanMismatchError as exc:
        if store is None:
            raise
        return _store_mismatch(args.store, store, tracer, exc)
    if store is not None:
        print(
            f"# store={args.store} entries={len(store.keys())} "
            f"hits={cache.stats.store_hits} misses={cache.stats.store_misses}"
        )
        store.close()
    if tracer is not None:
        tracer.close()
    schedule = result.schedule
    print(
        f"# method={schedule.method} rounds={schedule.num_rounds} "
        f"disks={instance.num_disks} items={instance.num_items}"
    )
    print(
        f"# components={len(result.components)} "
        f"solved={result.components_solved} cached={result.components_cached}"
    )
    print("stage timings:")
    for stage in result.stage_timings:
        print(f"  {stage:10s} {result.stage_timings[stage] * 1e3:9.3f} ms")
    if result.components:
        table = Table(
            "components",
            ["#", "disks", "items", "method", "rounds", "cached"],
        )
        for comp in result.components:
            table.add_row(
                comp.index, comp.num_disks, comp.num_items,
                comp.method, comp.rounds,
                "yes" if comp.cached else "no",
            )
        print(table.render())
    if result.objective is not None and result.objective.kind != "makespan":
        print(
            f"objective: {result.objective.kind} "
            f"value={result.objective_value}"
        )
        if result.optimality is not None:
            print(
                f"optimality proof: {result.optimality.proof} "
                f"(explored {result.optimality.explored} branches, "
                f"lower bound {result.optimality.lower_bound})"
            )
    if args.certify:
        print(
            f"verified lower bound: {result.lower_bound}; "
            f"certified optimal: {result.certified_optimal}"
        )
        if result.component_optimality:
            print(
                f"optimality certificates verified for "
                f"{len(result.component_optimality)} exact component(s)"
            )
    if args.report:
        import json

        # A fully cache-served plan did no solver work, so its stage
        # timings are noise; zero them and flag the hit, making the
        # report byte-stable across warm runs of the same store.
        cache_hit = bool(result.components) and result.components_cached == len(
            result.components
        )
        report = {
            "method": schedule.method,
            "rounds": schedule.num_rounds,
            "seed": args.seed,
            "objective": result.objective.kind if result.objective else "makespan",
            "objective_value": result.objective_value,
            "cache_hit": cache_hit,
            "stage_timings": {
                stage: 0.0 if cache_hit else result.stage_timings[stage]
                for stage in result.stage_timings
            },
            "components": [
                {
                    "index": comp.index,
                    "disks": comp.num_disks,
                    "items": comp.num_items,
                    "method": comp.method,
                    "rounds": comp.rounds,
                    "cached": comp.cached,
                }
                for comp in result.components
            ],
        }
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"plan report written to {args.report}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from repro.exact.gap import render_gap_table, run_gap

    metrics, code = run_gap(
        quick=args.quick, report_path=args.report, bench_path=args.bench
    )
    print(render_gap_table(metrics))
    total = sum(
        fam["summary"]["instances"] for fam in metrics["families"].values()
    )
    print(
        f"# {total} instances across {len(metrics['families'])} families, "
        f"every optimality certificate verified"
    )
    if args.report:
        print(f"gap report written to {args.report}")
    if args.bench:
        print(f"bench entry appended to {args.bench}")
    return code


def _print_scenarios() -> None:
    print("available scenarios:")
    for name in sorted(_SCENARIOS):
        print(f"  {name:15s} {_SCENARIOS[name].__doc__.strip().splitlines()[0]}")


def _resolve_scenario(args: argparse.Namespace) -> Optional[str]:
    """Shared ``demo``/``run`` scenario handling; None means 'bail'."""
    if getattr(args, "list", False):
        _print_scenarios()
        return None
    if args.scenario is None:
        print("a scenario name is required (or use --list)", file=sys.stderr)
        return None
    if args.scenario not in _SCENARIOS:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        _print_scenarios()
        return None
    return args.scenario


def _rate_model(time_model: str):
    """The rate model a ``--time-model`` choice names."""
    from repro.cluster.network import FairShareRates, UnitRates

    return UnitRates() if time_model == "unit" else FairShareRates()


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.runtime import MigrationExecutor

    name = _resolve_scenario(args)
    if name is None:
        return 0 if args.list else 2
    scenario = _SCENARIOS[name](seed=args.seed)
    instance = scenario.instance
    schedule = plan(instance, method=args.method).schedule
    report = MigrationExecutor(
        scenario.cluster, scenario.context, schedule,
        rate_model=_rate_model(args.time_model),
    ).run()
    print(
        f"scenario={scenario.name} disks={instance.num_disks} "
        f"moves={instance.num_items} method={schedule.method}"
    )
    print(
        f"rounds={schedule.num_rounds} simulated_time={report.total_time:.2f} "
        f"migrated={len(report.delivered)}"
    )
    return 0


def _parse_crash(spec: str):
    from repro.runtime import DiskCrash, FaultPlanError

    try:
        disk_id, at_time = spec.rsplit(":", 1)
        return DiskCrash(disk_id=disk_id, at_time=float(at_time))
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(f"crash spec {spec!r}: {exc}") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"crash spec {spec!r} is not DISK:TIME"
        ) from exc


def _parse_partition(spec: str):
    from repro.runtime import FaultPlanError, NetworkPartition

    try:
        start, end, group = spec.split(":", 2)
        return NetworkPartition(
            start=float(start),
            end=float(end),
            group=tuple(g.strip() for g in group.split(",") if g.strip()),
        )
    except FaultPlanError as exc:
        raise argparse.ArgumentTypeError(f"partition spec {spec!r}: {exc}") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"partition spec {spec!r} is not START:END:DISK[,DISK...]"
        ) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    import os

    from repro.runtime import (
        CheckpointError,
        FaultPlan,
        MigrationExecutor,
        RetryPolicy,
        load_checkpoint,
        restore_executor,
        save_checkpoint,
    )

    name = _resolve_scenario(args)
    if name is None:
        return 0 if args.list else 2
    scenario = _SCENARIOS[name](seed=args.seed)
    try:
        faults = FaultPlan(
            transfer_failure_rate=args.fault_rate,
            crashes=tuple(args.crash),
            partitions=tuple(args.partition),
        )
        policy = RetryPolicy(
            max_retries=args.max_retries,
            max_defers=args.max_defers,
            transfer_timeout=args.timeout,
        )
        disks = scenario.cluster.disks
        named = [c.disk_id for c in faults.crashes]
        named += [d for p in faults.partitions for d in p.group]
        for disk in named:
            if disk not in disks:
                raise ValueError(f"disk {disk!r} is not in the {name} scenario")
    except ValueError as exc:
        print(f"invalid run configuration: {exc}", file=sys.stderr)
        return 2
    config = {
        "scenario": name,
        "seed": args.seed,
        "method": args.method,
        "time_model": args.time_model,
        "faults": faults.to_json(),
        "max_retries": args.max_retries,
        "max_defers": args.max_defers,
        "timeout": args.timeout,
    }
    # One cache for the run: the initial plan populates it and crash
    # replans re-solve only the components the crash touched.  With
    # --store the cache also survives across processes (a killed run
    # resumed later replans from persisted solves).
    opened = _open_plan_cache(args.store)
    if opened is None:
        return 2
    plan_cache, plan_store = opened
    resuming = args.checkpoint is not None and os.path.exists(args.checkpoint)
    tracer = _open_tracer(args.trace_out, append=resuming)
    try:
        if resuming:
            try:
                saved_config, state = load_checkpoint(args.checkpoint)
                if saved_config != config:
                    print(
                        f"checkpoint {args.checkpoint} was written by a different run "
                        f"configuration; refusing to resume", file=sys.stderr,
                    )
                    return 2
                executor = restore_executor(
                    scenario.cluster, state, faults=faults, policy=policy,
                    rate_model=_rate_model(args.time_model), method=args.method,
                    seed=args.seed, cache=plan_cache, tracer=tracer,
                )
            except CheckpointError as exc:
                print(f"cannot resume: {exc}", file=sys.stderr)
                return 2
            print(f"resumed from {args.checkpoint} at round {executor.rounds_executed}")
        else:
            schedule = plan(
                scenario.instance, method=args.method, seed=args.seed,
                cache=plan_cache, tracer=tracer,
            ).schedule
            executor = MigrationExecutor(
                scenario.cluster, scenario.context, schedule,
                faults=faults, policy=policy,
                rate_model=_rate_model(args.time_model),
                method=args.method, seed=args.seed, cache=plan_cache,
                tracer=tracer,
            )

        remaining = args.max_rounds
        while True:
            chunk = args.checkpoint_every if args.checkpoint else None
            if remaining is not None:
                chunk = min(chunk, remaining) if chunk is not None else remaining
            before = executor.rounds_executed
            report = executor.run(max_rounds=chunk)
            if args.checkpoint:
                save_checkpoint(args.checkpoint, executor, config=config)
            ran = executor.rounds_executed - before
            if remaining is not None:
                remaining -= ran
            if report.finished or (remaining is not None and remaining <= 0):
                break
            if chunk is None or ran == 0:
                break
    except StoredPlanMismatchError as exc:
        if plan_store is None:
            raise
        return _store_mismatch(args.store, plan_store, tracer, exc)
    if tracer is not None:
        tracer.close()
    if plan_store is not None:
        plan_store.close()

    counters = report.telemetry.counters
    print(
        f"scenario={name} moves={len(report.delivered) + len(report.stranded) + len(executor.pending_items)} "
        f"method={args.method} seed={args.seed}"
    )
    print(
        f"rounds={report.rounds_executed} simulated_time={report.total_time:.2f} "
        f"delivered={len(report.delivered)} stranded={len(report.stranded)} "
        f"retries={counters.get('retries', 0)} replans={report.replans}"
    )
    if args.checkpoint:
        print(f"checkpoint={args.checkpoint}")
    if not report.finished:
        print(f"paused with {len(executor.pending_items)} transfers pending; "
              f"re-run with --checkpoint to resume")
        return 3
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = random_instance(
        num_disks=args.disks, num_items=args.items, seed=args.seed
    )
    results = compare_methods(instance, seed=args.seed)
    table = Table(
        f"scheduler comparison (disks={args.disks}, items={args.items})",
        ["method", "rounds", "LB", "ratio"],
    )
    for method, quality in sorted(results.items(), key=lambda kv: kv[1].rounds):
        table.add_row(method, quality.rounds, quality.lower_bound, quality.ratio)
    print(table.render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads.io import save_instance

    instance = random_instance(num_disks=args.disks, num_items=args.items, seed=args.seed)
    save_instance(instance, args.output)
    print(f"wrote {instance.num_items} moves over {instance.num_disks} disks to {args.output}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.analysis.gantt import render_gantt, utilization
    from repro.workloads.io import load_instance

    try:
        instance = load_instance(args.instance)
    except (InvalidInstanceError, OSError) as exc:
        return _input_error(args.instance, exc)
    schedule = plan(instance, method=args.method).schedule
    print(f"# method={schedule.method} rounds={schedule.num_rounds}")
    print(render_gantt(instance, schedule, max_rounds=args.max_rounds))
    util = utilization(instance, schedule)
    busy = [u for u in util.values() if u > 0]
    if busy:
        print(f"\nmean busy-disk utilization: {sum(busy) / len(busy):.2f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import aggregate_trace
    from repro.obs import load_trace
    from repro.obs.schema import validate_record, validate_trace

    # Each trace validates on its own (span ids are per-process, so
    # they may collide *across* files); aggregation then folds the
    # concatenated record stream — counters sum, timings accumulate —
    # which is how per-worker server traces merge into one report.
    # Without --validate each record is still shape-checked before it
    # is folded, but the span forest is not: a killed run's trace lacks
    # the parents it had not yet written, and must still fold.
    records = []
    failures = 0
    for path in args.trace:
        try:
            trace_records = load_trace(path)
        except (OSError, ValueError) as exc:
            return _input_error(path, exc)
        if args.validate:
            problems = validate_trace(trace_records)
            if problems:
                for problem in problems:
                    print(f"invalid ({path}): {problem}", file=sys.stderr)
                failures += 1
                continue
            print(f"trace OK: {path}: {len(trace_records)} records")
        else:
            for index, record in enumerate(trace_records):
                problems = validate_record(record, index)
                if problems:
                    return _input_error(path, problems[0])
        records.extend(trace_records)
    if failures:
        return 1
    if len(args.trace) > 1:
        print(f"# merged {len(args.trace)} traces, {len(records)} records")
    stats = aggregate_trace(records)
    print(
        f"# spans={stats.spans} plans={stats.plans} replans={stats.replans} "
        f"rounds={len(stats.rounds)}"
    )
    if stats.stages:
        table = Table("pipeline stages", ["stage", "calls", "wall ms", "cpu ms"])
        for stage, timing in stats.stages.items():
            table.add_row(
                stage, int(timing["calls"]),
                f"{timing['wall'] * 1e3:.3f}", f"{timing['cpu'] * 1e3:.3f}",
            )
        print(table.render())
    if stats.solvers:
        table = Table("solvers", ["method", "calls", "wall ms", "cpu ms"])
        for method, timing in stats.solvers.items():
            table.add_row(
                method, int(timing["calls"]),
                f"{timing['wall'] * 1e3:.3f}", f"{timing['cpu'] * 1e3:.3f}",
            )
        print(table.render())
    if stats.rounds:
        table = Table(
            "executed rounds",
            ["round", "attempted", "succeeded", "failed", "sim time", "wall ms"],
        )
        for row in stats.rounds:
            table.add_row(
                row["round"], row["attempted"], row["succeeded"], row["failed"],
                f"{row['sim_duration']:.2f}", f"{row['wall'] * 1e3:.3f}",
            )
        print(table.render())
    if stats.counters:
        table = Table("counters", ["name", "value"])
        for cname, value in stats.counters.items():
            table.add_row(cname, value)
        print(table.render())
    if stats.gauges:
        table = Table("gauges", ["name", "value"])
        for gname, gvalue in stats.gauges.items():
            table.add_row(gname, gvalue)
        print(table.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.broker import BrokerConfig
    from repro.serve.server import ServerConfig, serve as serve_main
    from repro.serve.store import PlanStoreError

    try:
        broker = BrokerConfig(
            max_queue=args.queue_size,
            concurrency=args.concurrency,
            rate_limit=args.rate,
            rate_burst=args.burst,
            default_timeout=args.timeout,
        )
        config = ServerConfig(
            host=args.host,
            port=args.port,
            store_path=args.store,
            broker=broker,
            trace_out=args.trace_out,
        )
    except ValueError as exc:
        print(f"invalid serve configuration: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(serve_main(config))
    except KeyboardInterrupt:
        pass  # SIGINT before the loop's handler was installed
    except PlanStoreError as exc:  # raised before the port is bound
        return _input_error(args.store, exc)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    from repro.sim import (
        SimConfig,
        compare_policies,
        policy_table,
        run_campaign,
    )

    tracer = _open_tracer(args.trace_out)
    try:
        config = SimConfig(
            racks=args.racks,
            machines_per_rack=args.machines,
            disks_per_machine=args.disks,
            transfer_limit=args.transfer_limit,
            items=args.items,
            scheme=args.scheme,
            placement=args.placement,
            duration=args.duration,
            seed=args.seed,
            failure_rate=args.failure_rate,
            crashes=tuple(args.crash),
            replacement_delay=args.replacement_delay,
            scrub_interval=args.scrub_interval,
            latent_error_rate=args.latent_rate,
            method=args.method,
            fabric=not args.no_fabric,
        )
    except ValueError as exc:
        print(f"invalid sim configuration: {exc}", file=sys.stderr)
        return 2

    if args.compare:
        from repro.sim import DEFAULT_POLICY_SPECS

        reports = compare_policies(config, DEFAULT_POLICY_SPECS, tracer=tracer)
        print(policy_table(reports).render())
        report = reports[args.placement]
    else:
        report = run_campaign(config, tracer=tracer)
        print(report.render())
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.canonical_json())
            handle.write("\n")
        print(f"report written to {args.report}")
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace_out}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads.replay import ReplayMismatch, replay
    from repro.workloads.temperature import TieredWorkloadConfig

    try:
        config = TieredWorkloadConfig(
            num_items=args.items,
            zipf_s=args.zipf_s,
            accesses_per_step=args.accesses,
            ewma_alpha=args.alpha,
            hysteresis=args.hysteresis,
            drift_interval=args.drift_interval,
            drift_swaps=args.drift_swaps,
            capacity_jitter=args.capacity_jitter,
        )
    except ValueError as exc:
        print(f"invalid workload configuration: {exc}", file=sys.stderr)
        return 2
    try:
        report = replay(
            config,
            args.steps,
            seed=args.seed,
            certify=not args.no_certify,
            check=args.check,
        )
    except ReplayMismatch as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 1
    total_rounds = sum(s.rounds for s in report.steps)
    patched = sum(s.components_patched for s in report.steps)
    reused = sum(s.components_reused for s in report.steps)
    resolved = sum(s.components_resolved for s in report.steps)
    print(
        f"replayed {len(report.steps)} steps: "
        f"{report.total_changes} delta changes, "
        f"{report.total_executed} transfers executed, "
        f"{total_rounds} scheduled rounds"
    )
    print(
        f"components: {reused} reused, {patched} patched, {resolved} re-solved"
    )
    print(f"final schedule digest: {report.final_digest}")
    if args.check:
        print("byte-identity vs full replan verified on every step")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.canonical_json())
            handle.write("\n")
        print(f"report written to {args.report}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.analysis.crossval import main as fuzz_main

    return fuzz_main(["--trials", str(args.trials), "--seed", str(args.seed)])


#: ``repro-migrate check`` exit codes: one documented code per failing
#: gate, in run order (the first failing gate wins).  0 = all green,
#: 2 = argparse usage error.
CHECK_EXIT_OK = 0
CHECK_EXIT_LINT = 3
CHECK_EXIT_TYPES = 4
CHECK_EXIT_DETERMINISM = 5
CHECK_EXIT_EFFECTS = 6
CHECK_EXIT_CERTIFY = 7
CHECK_EXIT_ENGINE = 8


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the repro.checks battery.

    Gates run in a fixed order (lint → types → determinism → effects →
    engine);
    every requested gate runs even after a failure, and the exit code
    is the first failing gate's documented code.  ``--json`` replaces
    the human output with one machine-readable summary of all gates.
    """
    import json
    from pathlib import Path

    from repro.checks import (
        CertificationError,
        analyze_tree,
        certificate_to_json,
        certify,
        check_determinism,
        check_exact_vs_heuristic,
        lint_tree,
        make_certificate,
        run_type_gate,
    )
    from repro.checks.flow import BaselineError

    summary: dict = {"gates": {}}
    human = not args.json
    exit_code = CHECK_EXIT_OK

    def gate_failed(code: int) -> None:
        nonlocal exit_code
        if exit_code == CHECK_EXIT_OK:
            exit_code = code

    if args.certify is not None:
        from repro.workloads.io import load_instance

        try:
            instance = load_instance(args.certify)
        except (InvalidInstanceError, OSError) as exc:
            return _input_error(args.certify, exc)
        schedule = plan(instance, method=args.method).schedule
        certificate = make_certificate(instance)
        try:
            report = certify(instance, schedule, certificate=certificate)
        except CertificationError as exc:
            if human:
                print(f"certification FAILED: {exc}")
            summary["gates"]["certify"] = {"ok": False, "error": str(exc)}
            gate_failed(CHECK_EXIT_CERTIFY)
        else:
            if human:
                print(
                    f"schedule: {report.rounds} rounds (method={report.method}); "
                    f"verified lower bound: {report.lower_bound}; "
                    f"certified optimal: {report.certified_optimal}"
                )
                print(json.dumps(certificate_to_json(certificate), indent=2))
            summary["gates"]["certify"] = {
                "ok": True,
                "rounds": report.rounds,
                "lower_bound": report.lower_bound,
                "certified_optimal": report.certified_optimal,
            }
        summary["ok"] = exit_code == CHECK_EXIT_OK
        summary["exit_code"] = exit_code
        if not human:
            print(json.dumps(summary, sort_keys=True, indent=2))
        return exit_code

    run_all = not (
        args.lint or args.types or args.determinism or args.effects or args.engine
    )
    root = Path(args.root) if args.root else None

    if args.lint or run_all:
        lint_report = lint_tree(root=root)
        if human:
            print(
                f"lint: {len(lint_report.findings)} findings, "
                f"{len(lint_report.suppressed)} suppressed, "
                f"{lint_report.files_scanned} files"
            )
            if not lint_report.ok:
                print(lint_report.render())
        summary["gates"]["lint"] = {
            "ok": lint_report.ok,
            "findings": len(lint_report.findings),
            "suppressed": len(lint_report.suppressed),
            "files": lint_report.files_scanned,
        }
        if not lint_report.ok:
            gate_failed(CHECK_EXIT_LINT)

    if args.types or run_all:
        type_report = run_type_gate()
        if human:
            print(type_report.render().strip())
        summary["gates"]["types"] = {
            "ok": type_report.ok,
            "skipped": getattr(type_report, "skipped", False),
        }
        if not type_report.ok:
            gate_failed(CHECK_EXIT_TYPES)

    if args.determinism or run_all:
        det_report = check_determinism(fast=args.fast)
        if human:
            print("determinism (PYTHONHASHSEED 0 vs 1):")
            print(det_report.render())
        summary["gates"]["determinism"] = {
            "ok": det_report.ok,
            "cases": len(det_report.checks),
        }
        if not det_report.ok:
            gate_failed(CHECK_EXIT_DETERMINISM)

    if args.effects or run_all:
        baseline = Path(args.flow_baseline) if args.flow_baseline else None
        try:
            flow_report = analyze_tree(root=root, baseline_path=baseline)
        except BaselineError as exc:
            if human:
                print(f"effects: baseline error: {exc}")
            summary["gates"]["effects"] = {"ok": False, "error": str(exc)}
            gate_failed(CHECK_EXIT_EFFECTS)
        else:
            if human:
                print("effects (flow analyzer):")
                print(flow_report.render())
            if args.flow_report:
                Path(args.flow_report).write_text(flow_report.canonical_json())
                if human:
                    print(f"flow report written to {args.flow_report}")
            summary["gates"]["effects"] = {
                "ok": flow_report.ok,
                "findings": len(flow_report.findings),
                "suppressed": len(flow_report.suppressed),
                "baselined": len(flow_report.baselined),
                "stale_baseline": len(flow_report.stale_baseline),
                "functions": flow_report.functions,
                "classification_counts": flow_report.classification_counts,
            }
            if not flow_report.ok:
                gate_failed(CHECK_EXIT_EFFECTS)

    if args.engine or run_all:
        exact_report = check_exact_vs_heuristic()
        if human:
            print("engine (exact vs heuristic):")
            print(exact_report.render())
        summary["gates"]["engine"] = {
            "ok": exact_report.ok,
            "cases": len(exact_report.cases),
        }
        if not exact_report.ok:
            gate_failed(CHECK_EXIT_ENGINE)

    summary["ok"] = exit_code == CHECK_EXIT_OK
    summary["exit_code"] = exit_code
    if not human:
        print(json.dumps(summary, sort_keys=True, indent=2))
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-migrate",
        description="Heterogeneous data-migration scheduling (ICDCS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="schedule moves from a file")
    p_sched.add_argument("moves_file")
    p_sched.add_argument("--method", choices=_METHODS, default="auto")
    p_sched.add_argument("--default-capacity", type=int, default=1)
    p_sched.add_argument(
        "--json", action="store_true",
        help="treat the input as a JSON instance (see `generate`)",
    )
    p_sched.set_defaults(func=_cmd_schedule)

    p_plan = sub.add_parser(
        "plan",
        help="staged planning pipeline: stage timings, per-component "
             "attribution, caching",
    )
    p_plan.add_argument("moves_file")
    p_plan.add_argument("--method", choices=_METHODS, default="auto")
    p_plan.add_argument("--default-capacity", type=int, default=1)
    p_plan.add_argument(
        "--json", action="store_true",
        help="treat the input as a JSON instance (see `generate`)",
    )
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--report", metavar="PATH", default=None,
                        help="write a JSON plan report: rounds, per-component "
                             "method attribution, cache hits")
    p_plan.add_argument("--no-cache", action="store_true",
                        help="disable the component plan cache")
    p_plan.add_argument("--store", metavar="PATH", default=None,
                        help="persistent plan store (one SQLite file, "
                             "created if absent); warms the cache and writes "
                             "new solves through")
    p_plan.add_argument("--certify", action="store_true",
                        help="compose and verify a per-component "
                             "lower-bound certificate (and, where the exact "
                             "solver ran, an optimality certificate)")
    p_plan.add_argument("--objective", metavar="PATH", default=None,
                        help="optimize a JSON objective (see "
                             "repro.core.objectives: bounded_color, "
                             "group_completion) instead of makespan; solved "
                             "to proven optimality by the exact solver")
    p_plan.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a repro.obs JSONL trace of the pipeline "
                             "(see `stats`)")
    p_plan.set_defaults(func=_cmd_plan)

    p_gap = sub.add_parser(
        "gap",
        help="true approximation-gap sweep: exact optima vs heuristics "
             "across generator families (repro.exact.gap)",
    )
    p_gap.add_argument("--quick", action="store_true",
                       help="run the CI subset (2 seeds per family)")
    p_gap.add_argument("--report", metavar="PATH", default=None,
                       help="write the canonical metrics JSON (byte-stable "
                            "across runs and PYTHONHASHSEED values)")
    p_gap.add_argument("--bench", metavar="PATH", nargs="?", const="BENCH_EXACT.json",
                       default=None,
                       help="append a commit-keyed entry to BENCH_EXACT.json "
                            "(or PATH)")
    p_gap.set_defaults(func=_cmd_gap)

    p_gen = sub.add_parser("generate", help="write a workload instance to JSON")
    p_gen.add_argument("output")
    p_gen.add_argument("--disks", type=int, default=20)
    p_gen.add_argument("--items", type=int, default=200)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_generate)

    p_demo = sub.add_parser("demo", help="run a named scenario in the simulator")
    p_demo.add_argument("scenario", nargs="?", default=None)
    p_demo.add_argument("--list", action="store_true",
                        help="list available scenarios and exit")
    p_demo.add_argument("--method", choices=_METHODS, default="auto")
    p_demo.add_argument("--time-model", choices=("unit", "bandwidth_split"), default="bandwidth_split")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    p_run = sub.add_parser(
        "run",
        help="supervised, fault-tolerant scenario execution (repro.runtime)",
    )
    p_run.add_argument("scenario", nargs="?", default=None)
    p_run.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    p_run.add_argument("--method", choices=_METHODS, default="auto")
    p_run.add_argument("--time-model", choices=("unit", "bandwidth_split"),
                       default="bandwidth_split")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--fault-rate", type=float, default=0.0,
                       help="per-transfer failure probability in [0, 1)")
    p_run.add_argument("--crash", type=_parse_crash, action="append", default=[],
                       metavar="DISK:TIME",
                       help="crash DISK at simulated TIME (repeatable)")
    p_run.add_argument("--partition", type=_parse_partition, action="append",
                       default=[], metavar="START:END:DISK[,DISK...]",
                       help="sever DISK group from the rest during [START, END) "
                            "(repeatable)")
    p_run.add_argument("--max-retries", type=int, default=3)
    p_run.add_argument("--max-defers", type=int, default=1)
    p_run.add_argument("--timeout", type=float, default=None,
                       help="per-attempt simulated-time budget")
    p_run.add_argument("--checkpoint", metavar="PATH",
                       help="checkpoint file; resumes if it already exists")
    p_run.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                       help="checkpoint every N rounds (default 1)")
    p_run.add_argument("--max-rounds", type=int, default=None, metavar="N",
                       help="execute at most N rounds this invocation, then "
                            "checkpoint and exit with status 3")
    p_run.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a repro.obs span/metric JSONL trace "
                            "(appends when resuming; see `stats`)")
    p_run.add_argument("--store", metavar="PATH", default=None,
                       help="persistent plan store shared across runs "
                            "(one SQLite file, created if absent)")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived asyncio planning service: plan/certify over "
             "HTTP, coalescing, plan store, graceful drain (repro.serve)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8423,
                         help="bind port (0 picks an ephemeral port)")
    p_serve.add_argument("--store", metavar="PATH", default=None,
                         help="persistent plan store (one SQLite file, "
                              "created if absent); warm-started at boot, "
                              "flushed at drain")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="admission queue bound (backpressure)")
    p_serve.add_argument("--concurrency", type=int, default=2,
                         help="concurrent planning threads")
    p_serve.add_argument("--rate", type=float, default=0.0,
                         help="per-client requests/second (0 = unlimited)")
    p_serve.add_argument("--burst", type=int, default=8,
                         help="per-client burst allowance")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="default per-request deadline in seconds")
    p_serve.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write this server's repro.obs JSONL trace "
                              "(see `stats`; multiple server traces merge)")
    p_serve.set_defaults(func=_cmd_serve)

    p_gantt = sub.add_parser("gantt", help="render a schedule Gantt chart")
    p_gantt.add_argument("instance", help="JSON instance (see `generate`)")
    p_gantt.add_argument("--method", choices=_METHODS, default="auto")
    p_gantt.add_argument("--max-rounds", type=int, default=60)
    p_gantt.set_defaults(func=_cmd_gantt)

    p_stats = sub.add_parser(
        "stats",
        help="summarize a repro.obs trace: per-stage/solver timings, "
             "per-round execution, counters",
    )
    p_stats.add_argument("trace", nargs="+",
                         help="JSONL trace(s) from --trace-out; several "
                              "files merge into one aggregate report")
    p_stats.add_argument("--validate", action="store_true",
                         help="check every record against the trace schema "
                              "before summarizing")
    p_stats.set_defaults(func=_cmd_stats)

    p_sim = sub.add_parser(
        "sim",
        help="deterministic failure-and-recovery campaign: seeded "
             "failures, planner-driven repair, durability report (repro.sim)",
    )
    p_sim.add_argument("--scheme", default="rep3",
                       help="redundancy spec: rep<r>, rs<k>+<m> or "
                            "lrc<k>+<l>+<g> (default rep3)")
    p_sim.add_argument("--placement", default="spread",
                       choices=("random", "spread", "copyset"))
    p_sim.add_argument("--compare", action="store_true",
                       help="run all placement policies under the same "
                            "seeded failures and print the comparison table")
    p_sim.add_argument("--duration", type=float, default=1000.0,
                       help="simulation horizon in sim-seconds")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--racks", type=int, default=3)
    p_sim.add_argument("--machines", type=int, default=2,
                       help="machines per rack")
    p_sim.add_argument("--disks", type=int, default=4,
                       help="disk slots per machine")
    p_sim.add_argument("--transfer-limit", type=int, default=2,
                       help="per-disk transfer constraint c_v")
    p_sim.add_argument("--items", type=int, default=100)
    p_sim.add_argument("--failure-rate", type=float, default=0.001,
                       help="per-disk failures per sim-second (0 disables)")
    p_sim.add_argument("--crash", type=_parse_crash, action="append",
                       default=[], metavar="DISK:TIME",
                       help="scripted crash, same syntax as `run` (repeatable)")
    p_sim.add_argument("--replacement-delay", type=float, default=50.0)
    p_sim.add_argument("--scrub-interval", type=float, default=200.0,
                       help="per-disk scrub period (0 disables scrubbing)")
    p_sim.add_argument("--latent-rate", type=float, default=0.05,
                       help="probability a scrub pass loses one fragment")
    p_sim.add_argument("--method", choices=_METHODS, default="auto",
                       help="planner method for repair scheduling")
    p_sim.add_argument("--no-fabric", action="store_true",
                       help="disks only: skip the rack-uplink rate model")
    p_sim.add_argument("--report", metavar="PATH", default=None,
                       help="write the canonical JSON report (byte-stable "
                            "for a given configuration)")
    p_sim.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a repro.obs JSONL trace (spans per "
                            "incident, plan-cache counters; see `stats`)")
    p_sim.set_defaults(func=_cmd_sim)

    p_work = sub.add_parser(
        "workload",
        help="temperature-driven tiered workload replayed through the "
             "incremental delta planner (repro.workloads + plan_delta)",
    )
    p_work.add_argument("--steps", type=int, default=100,
                        help="closed-loop ticks to replay")
    p_work.add_argument("--seed", type=int, default=0)
    p_work.add_argument("--items", type=int, default=200,
                        help="number of data items under management")
    p_work.add_argument("--accesses", type=int, default=64,
                        help="accesses drawn per step")
    p_work.add_argument("--zipf-s", type=float, default=1.1,
                        help="Zipf exponent of the access popularity law")
    p_work.add_argument("--alpha", type=float, default=0.3,
                        help="EWMA smoothing factor for temperatures")
    p_work.add_argument("--hysteresis", type=float, default=1.25,
                        help="promotion/demotion hysteresis margin (>= 1)")
    p_work.add_argument("--drift-interval", type=int, default=20,
                        help="steps between popularity-rank drift events")
    p_work.add_argument("--drift-swaps", type=int, default=8,
                        help="rank pairs swapped per drift event")
    p_work.add_argument("--capacity-jitter", type=float, default=0.0,
                        help="per-step probability of a disk re-provision "
                             "(emitted as a capacity change)")
    p_work.add_argument("--no-certify", action="store_true",
                        help="skip lower-bound certification of each plan")
    p_work.add_argument("--check", action="store_true",
                        help="verify every patched plan byte-identical to "
                             "a full replan (slow)")
    p_work.add_argument("--report", metavar="PATH", default=None,
                        help="write the canonical JSON transcript "
                             "(byte-stable for a given configuration)")
    p_work.set_defaults(func=_cmd_workload)

    p_fuzz = sub.add_parser("fuzz", help="cross-validate schedulers on random instances")
    p_fuzz.add_argument("--trials", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_cmp = sub.add_parser("compare", help="compare schedulers on a random workload")
    p_cmp.add_argument("--disks", type=int, default=20)
    p_cmp.add_argument("--items", type=int, default=200)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_check = sub.add_parser(
        "check",
        help="determinism lint, typing gate, hash-seed harness, certification",
    )
    p_check.add_argument("--lint", action="store_true",
                         help="run only the determinism linter")
    p_check.add_argument("--types", action="store_true",
                         help="run only the mypy strict gate (skips if mypy "
                              "is not installed)")
    p_check.add_argument("--determinism", action="store_true",
                         help="run only the cross-PYTHONHASHSEED harness")
    p_check.add_argument("--effects", action="store_true",
                         help="run only the whole-program flow analyzer "
                              "(effect inference, solver contracts, "
                              "async-safety, pool-boundary rules)")
    p_check.add_argument("--engine", action="store_true",
                         help="run only the exact-vs-heuristic battery "
                              "(verified LB <= exact optimum <= Theorem 5.1 "
                              "heuristic on the small corpus)")
    p_check.add_argument("--fast", action="store_true",
                         help="skip the (slow) executor determinism case")
    p_check.add_argument("--json", action="store_true",
                         help="print one machine-readable summary of all "
                              "gates instead of human output")
    p_check.add_argument("--flow-report", metavar="PATH", default=None,
                         help="write the flow analyzer's byte-deterministic "
                              "JSON report to PATH")
    p_check.add_argument("--flow-baseline", metavar="PATH", default=None,
                         help="flow baseline file (default: the baseline "
                              "shipped with the package when analyzing the "
                              "installed tree)")
    p_check.add_argument("--certify", metavar="PATH", default=None,
                         help="plan a JSON instance (see `generate`), "
                              "independently certify the schedule, and print "
                              "the lower-bound certificate")
    p_check.add_argument("--method", choices=_METHODS, default="auto",
                         help="planner method for --certify")
    p_check.add_argument("--root", default=None,
                         help="lint this directory instead of the installed "
                              "repro package")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
