"""Schedule-quality metrics.

Everything the experiment tables report is computed here:
rounds, the certified lower bound, the ratio between them (an upper
bound on the true approximation ratio, since ``LB <= OPT``), and the
Theorem 5.1 budget ``LB + 2⌈√LB⌉``.

Also folds :mod:`repro.obs` JSONL traces (read them with
:func:`repro.obs.load_trace`): :func:`summarize_runtime_trace` for a
supervised run, :func:`aggregate_trace` for ``repro-migrate stats`` —
the trace format is plain JSON, so this module needs no runtime import
and works on archived traces.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.lower_bounds import lb1, lower_bound
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.obs import names
from repro.obs.schema import validate_record
from repro.pipeline.planner import plan


@dataclass(frozen=True)
class ScheduleQuality:
    """Quality summary of one schedule on one instance."""

    method: str
    rounds: int
    lower_bound: int
    delta_prime: int

    @property
    def ratio(self) -> float:
        """Rounds over the certified lower bound.

        Since ``LB <= OPT``, this is an upper bound on the schedule's
        true approximation ratio.
        """
        return self.rounds / self.lower_bound if self.lower_bound else 1.0

    @property
    def excess(self) -> int:
        """Rounds above the lower bound."""
        return self.rounds - self.lower_bound

    @property
    def theorem_budget(self) -> int:
        """``LB + 2⌈√LB⌉ + 2`` — the Theorem 5.1 yardstick."""
        return self.lower_bound + 2 * math.isqrt(max(self.lower_bound, 0)) + 2

    @property
    def within_theorem_budget(self) -> bool:
        return self.rounds <= self.theorem_budget


def schedule_quality(
    instance: MigrationInstance,
    schedule: MigrationSchedule,
    precomputed_lb: Optional[int] = None,
) -> ScheduleQuality:
    """Compute the quality record for a (validated) schedule."""
    lb = precomputed_lb if precomputed_lb is not None else lower_bound(instance)
    return ScheduleQuality(
        method=schedule.method,
        rounds=schedule.num_rounds,
        lower_bound=lb,
        delta_prime=lb1(instance),
    )


def compare_methods(
    instance: MigrationInstance,
    methods: Sequence[str] = ("general", "saia", "greedy", "homogeneous"),
    seed: int = 0,
) -> Dict[str, ScheduleQuality]:
    """Run several schedulers on one instance; return quality per method."""
    lb = lower_bound(instance)
    out: Dict[str, ScheduleQuality] = {}
    for method in methods:
        schedule = plan(instance, method=method, seed=seed).schedule
        out[method] = schedule_quality(instance, schedule, precomputed_lb=lb)
    return out


@dataclass(frozen=True)
class RuntimeSummary:
    """Aggregate view of one supervised run's JSONL trace."""

    completion_time: float
    rounds: int
    attempts: int
    delivered: int
    failures: Dict[str, int]
    retries: int
    defers: int
    replans: int
    stranded: int
    crashes: int
    finished: bool

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def goodput(self) -> float:
        """Delivered transfers per attempted transfer (1.0 = no waste)."""
        return self.delivered / self.attempts if self.attempts else 1.0


def summarize_runtime_trace(records: Sequence[Mapping[str, Any]]) -> RuntimeSummary:
    """Fold a runtime :mod:`repro.obs` trace into the headline numbers.

    Reads the records ``repro-migrate run --trace-out`` writes:
    ``runtime.round`` spans carry attempt counts and simulated timing in
    their attrs, ``runtime.replan`` spans count replans, and the flushed
    ``counter``/``gauge`` records carry failures by reason, retries,
    defers, strandings, crashes and the finished flag.

    Works on a full trace or on the concatenation a resumed run
    appends to — records are folded, not assumed contiguous, and each
    process flushes only the counts it added.

    Every record is shape-checked with
    :func:`repro.obs.schema.validate_record` before any is folded, so
    the fold reads counts and times as written, as
    :func:`aggregate_trace` does.

    Raises:
        ValueError: naming the first record the schema refuses.
    """
    for index, record in enumerate(records):
        problems = validate_record(record, index)
        if problems:
            raise ValueError(problems[0])
    attempts = delivered = retries = defers = replans = 0
    stranded = crashes = rounds = 0
    failures: Dict[str, int] = {}
    completion_time = 0.0
    finished = False
    for record in records:
        kind = record.get("kind")
        name = record.get("name", "")
        if kind == "span":
            attrs = record.get("attrs", {})
            if name == names.SPAN_ROUND:
                rounds += 1
                attempts += attrs.get("attempted", 0)
                delivered += attrs.get("succeeded", 0)
                completion_time = max(
                    completion_time,
                    attrs.get("sim_start", 0.0) + attrs.get("sim_duration", 0.0),
                )
            elif name == names.SPAN_REPLAN:
                replans += 1
        elif kind == "counter":
            value = record["value"]
            if name.startswith(names.FAILURE_PREFIX):
                reason = name[len(names.FAILURE_PREFIX):]
                failures[reason] = failures.get(reason, 0) + value
            elif name == names.RETRIES:
                retries += value
            elif name == names.DEFERS:
                defers += value
            elif name == names.ITEMS_STRANDED:
                stranded += value
            elif name == names.DISK_CRASHES:
                crashes += value
            elif name == names.ITEMS_RETARGETED_IN_PLACE:
                delivered += value
        elif kind == "gauge":
            if name == names.RUNTIME_FINISHED and record.get("value"):
                finished = True
    return RuntimeSummary(
        completion_time=completion_time,
        rounds=rounds,
        attempts=attempts,
        delivered=delivered,
        failures={k: failures[k] for k in sorted(failures)},
        retries=retries,
        defers=defers,
        replans=replans,
        stranded=stranded,
        crashes=crashes,
        finished=finished,
    )


@dataclass
class TraceStats:
    """Aggregate view of one :mod:`repro.obs` JSONL trace.

    The backing store of ``repro-migrate stats``: per-pipeline-stage
    and per-solver wall/CPU totals, per-round execution numbers, and
    the flushed metric instruments.  All mappings are sorted by key so
    rendering is deterministic.
    """

    spans: int = 0
    #: stage name -> {"wall", "cpu", "calls"} for ``pipeline.stage.*``.
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: solver method -> {"wall", "cpu", "calls"} for ``pipeline.solve``,
    #: one span per component solve.
    solvers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: one row per ``runtime.round`` span, in trace order.
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    plans: int = 0
    replans: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)


def _fold_timing(
    into: Dict[str, Dict[str, float]], key: str, record: Mapping[str, Any]
) -> None:
    slot = into.setdefault(key, {"wall": 0.0, "cpu": 0.0, "calls": 0})
    slot["wall"] += float(record.get("wall", 0.0))
    slot["cpu"] += float(record.get("cpu", 0.0))
    slot["calls"] += 1


def aggregate_trace(records: Sequence[Mapping[str, Any]]) -> TraceStats:
    """Fold an obs-schema trace, whose records
    :func:`repro.obs.schema.validate_record` accepts, into
    :class:`TraceStats`."""
    stats = TraceStats()
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            stats.spans += 1
            name = str(record.get("name", ""))
            attrs = record.get("attrs", {})
            if name.startswith(names.SPAN_STAGE_PREFIX):
                _fold_timing(
                    stats.stages, name[len(names.SPAN_STAGE_PREFIX):], record
                )
            elif name == names.SPAN_SOLVE:
                _fold_timing(stats.solvers, str(attrs.get("method", "?")), record)
            elif name == names.SPAN_PLAN:
                stats.plans += 1
            elif name == names.SPAN_REPLAN:
                stats.replans += 1
            elif name == names.SPAN_ROUND:
                # A round that raised closes its span before setting
                # its counts and times; a missing one folds as 0.
                stats.rounds.append(
                    {
                        "round": attrs.get("round"),
                        "wall": record.get("wall", 0.0),
                        "attempted": attrs.get("attempted", 0),
                        "succeeded": attrs.get("succeeded", 0),
                        "failed": attrs.get("failed", 0),
                        "sim_start": attrs.get("sim_start", 0.0),
                        "sim_duration": attrs.get("sim_duration", 0.0),
                    }
                )
        elif kind == "counter":
            name = str(record.get("name", ""))
            stats.counters[name] = stats.counters.get(name, 0) + int(
                record.get("value", 0)
            )
        elif kind == "gauge":
            stats.gauges[str(record.get("name", ""))] = float(
                record.get("value", 0.0)
            )
    stats.stages = {k: stats.stages[k] for k in sorted(stats.stages)}
    stats.solvers = {k: stats.solvers[k] for k in sorted(stats.solvers)}
    stats.counters = {k: stats.counters[k] for k in sorted(stats.counters)}
    stats.gauges = {k: stats.gauges[k] for k in sorted(stats.gauges)}
    return stats


def summarize_ratios(qualities: Iterable[ScheduleQuality]) -> Dict[str, float]:
    """Mean / max / p95 of ratio-to-LB over a batch of runs."""
    ratios = [q.ratio for q in qualities]
    if not ratios:
        return {"mean": 1.0, "max": 1.0, "p95": 1.0}
    ratios.sort()
    p95_index = min(len(ratios) - 1, math.ceil(0.95 * len(ratios)) - 1)
    return {
        "mean": statistics.fmean(ratios),
        "max": ratios[-1],
        "p95": ratios[p95_index],
    }
