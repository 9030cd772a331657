"""The migration orchestrator: supervised, resumable execution.

:class:`MigrationExecutor` is the one way to execute a planned
:class:`MigrationSchedule` against a cluster.  It drives a *work queue*
of rounds transfer-by-transfer, pricing each round with a
:mod:`repro.cluster.network` rate model (a round lasts as long as its
slowest transfer — the paper's Figure 2 arithmetic under the default
:class:`~repro.cluster.network.FairShareRates`), with explicit
per-transfer states (``pending → in-flight → done/failed``).  Without
faults, ``run()`` replays the schedule round for round; with them:

* individual transfer failures climb the policy ladder
  (retry with backoff → defer → replan, see :mod:`repro.runtime.policy`);
* disk crashes at a simulated time strand unrecoverable items and
  trigger a replan via :func:`repro.pipeline.plan` on the residual
  transfer graph — with an optional plan cache, only the components
  the crash actually touched are re-solved;
* execution can stop after any round (``run(max_rounds=...)``) and the
  full state — queue, retry counters, RNG, telemetry — snapshots to
  JSON (:mod:`repro.runtime.checkpoint`) and resumes bit-for-bit.

Determinism contract: the same (cluster construction, schedule,
faults, policy, seed) always yields the same final layout, event
sequence and telemetry totals, interrupted or not.  All randomness
flows through one ``random.Random`` owned by the executor; all
iteration follows queue order, which is itself derived
deterministically from the planner's output.

Internally the executor addresses work by *item id*, not edge id:
replans rebuild the transfer graph (and its edge ids) but items
persist, as do their retry counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.disk import DiskId
from repro.cluster.events import (
    DiskRemoved,
    EventLog,
    ItemMigrated,
    MigrationReplanned,
    RoundCompleted,
    RoundStarted,
)
from repro.cluster.item import ItemId
from repro.cluster.network import FairShareRates, RateModel
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.core.schedule import MigrationSchedule
from repro.obs import names
from repro.obs.trace import Tracer, ensure_tracer
from repro.pipeline.cache import PlanCache
from repro.pipeline.planner import plan
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.policy import EscalationAction, RetryPolicy
from repro.runtime.telemetry import RuntimeTelemetry

#: Per-transfer lifecycle states.
PENDING = "pending"
IN_FLIGHT = "in_flight"
DONE = "done"
FAILED = "failed"

TRANSFER_STATES = (PENDING, IN_FLIGHT, DONE, FAILED)


@dataclass
class RunReport:
    """Outcome of (part of) a supervised run.

    ``finished`` means the work queue drained: every move was either
    delivered or stranded.  A run paused by ``max_rounds`` is not
    finished; calling :meth:`MigrationExecutor.run` again continues it.
    """

    delivered: List[ItemId] = field(default_factory=list)
    stranded: List[ItemId] = field(default_factory=list)
    total_time: float = 0.0
    rounds_executed: int = 0
    replans: int = 0
    finished: bool = False
    log: EventLog = field(default_factory=EventLog)
    telemetry: RuntimeTelemetry = field(default_factory=RuntimeTelemetry)

    @property
    def fully_delivered(self) -> bool:
        return self.finished and not self.stranded


class MigrationExecutor:
    """Drives a migration schedule to completion, with or without faults.

    Args:
        cluster: the cluster to mutate (the executor owns no hidden
            copies).
        context: the plan context the schedule was computed for.
        schedule: a validated schedule for ``context.instance``.
        faults: what goes wrong (default: nothing).
        policy: the retry/defer/replan ladder (default knobs).
        rate_model: the :class:`~repro.cluster.network.RateModel`
            that prices each round (default: Figure 2's
            :class:`~repro.cluster.network.FairShareRates`;
            :class:`~repro.cluster.network.UnitRates` makes time the
            number of rounds).
        method: planner method used for replans (``repro.plan``'s
            ``method=``).
        seed: seeds the executor RNG (fault draws + backoff jitter).
        cache: optional :class:`~repro.pipeline.cache.PlanCache`
            shared with the planning pipeline.  When a crash touches
            one connected component of the residual transfer graph,
            replanning re-solves only that component and serves the
            rest from cache (see the ``replan_components_*`` telemetry
            counters).  Plans are byte-identical with or without the
            cache, so the checkpoint/resume determinism contract is
            unaffected.
        tracer: optional :class:`repro.obs.Tracer`.  Each executed
            round and each replan becomes a span; telemetry counters
            are mirrored into the tracer's metrics registry.  The
            default no-op tracer costs nothing and changes nothing.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        context: MigrationPlanContext,
        schedule: MigrationSchedule,
        *,
        faults: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
        rate_model: Optional[RateModel] = None,
        method: str = "auto",
        seed: int = 0,
        cache: Optional[PlanCache] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.cluster = cluster
        self.faults = FaultInjector(faults if faults is not None else FaultPlan())
        self.policy = policy if policy is not None else RetryPolicy()
        self.method = method
        self.seed = seed
        self.plan_cache = cache
        self.tracer = ensure_tracer(tracer)
        self.rate_model = rate_model if rate_model is not None else FairShareRates()
        self._rng = random.Random(seed)
        self.telemetry = RuntimeTelemetry()
        self.log = EventLog()

        self._now: float = 0.0
        self._round_index: int = 0
        self._replans: int = 0
        self._delivered: List[ItemId] = []
        self._stranded: List[ItemId] = []
        self._attempts: Dict[ItemId, int] = {}
        self._defers: Dict[ItemId, int] = {}
        self._escalated: Set[ItemId] = set()
        self._crashed: Set[DiskId] = set()

        if context is not None and schedule is not None:
            schedule.validate(context.instance)
            self._install_plan(context)
            self._targets: Dict[ItemId, DiskId] = {}
            graph = context.instance.graph
            for eid, item_id in context.edge_items.items():
                _src, dst = graph.endpoints(eid)
                self._targets[item_id] = dst
            self._queue: List[List[ItemId]] = [
                [context.edge_items[eid] for eid in rnd] for rnd in schedule.rounds
            ]
            self._states: Dict[ItemId, str] = {
                item: PENDING for rnd in self._queue for item in rnd
            }

    # ------------------------------------------------------------------
    # plan installation (init / replan / resume share this)
    # ------------------------------------------------------------------
    def _install_plan(self, context: MigrationPlanContext) -> None:
        self._context = context
        self._edge_of: Dict[ItemId, int] = {
            item: eid for eid, item in context.edge_items.items()
        }

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def rounds_executed(self) -> int:
        return self._round_index

    @property
    def pending_items(self) -> List[ItemId]:
        """Items not yet delivered or stranded, in queue order."""
        return [
            item
            for rnd in self._queue
            for item in rnd
            if self._states.get(item) == PENDING
        ]

    @property
    def finished(self) -> bool:
        return not self.pending_items

    def run(self, max_rounds: Optional[int] = None) -> RunReport:
        """Execute until the queue drains or ``max_rounds`` pass.

        Empty rounds (everything in them already resolved) are skipped
        without consuming the budget or advancing the clock.
        """
        executed = 0
        while True:
            self._trigger_due_crashes()
            while self._queue and not any(
                self._states.get(i) == PENDING for i in self._queue[0]
            ):
                self._queue.pop(0)
            if not self._queue:
                break
            if max_rounds is not None and executed >= max_rounds:
                break
            self._execute_round()
            executed += 1
        report = self._report()
        if report.finished:
            self.tracer.gauge(names.RUNTIME_FINISHED, 1.0)
        return report

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a checkpointed telemetry counter and mirror it into the
        tracer's metrics registry (a no-op for the default tracer)."""
        self.telemetry.count(name, n)
        self.tracer.count(name, n)

    # ------------------------------------------------------------------
    # crash handling
    # ------------------------------------------------------------------
    def _trigger_due_crashes(self) -> None:
        for crash in self.faults.due_crashes(self._now, self._crashed):
            self._crashed.add(crash.disk_id)
            if crash.disk_id in self.cluster.disks:
                self.cluster.remove_disk(crash.disk_id)
            self.log.record(DiskRemoved(time=self._now, disk_id=crash.disk_id))
            self._count(names.DISK_CRASHES)
            needs_replan = False
            for item in self.pending_items:
                src = self.cluster.layout.disk_of(item)
                if src == crash.disk_id:
                    # The only copy died with its source disk.
                    self._strand(item)
                elif self._targets[item] == crash.disk_id:
                    needs_replan = True
            if needs_replan:
                self._replan(reason=f"disk {crash.disk_id!r} crashed")

    def _strand(self, item: ItemId) -> None:
        self._states[item] = FAILED
        self._stranded.append(item)
        self._count(names.ITEMS_STRANDED)

    # ------------------------------------------------------------------
    # replanning
    # ------------------------------------------------------------------
    def _replan(self, reason: str) -> None:
        """Rebuild plan + schedule for every still-pending move.

        Moves whose target died are re-aimed round-robin over the
        surviving fleet (skipping the item's current disk when
        possible); an item re-aimed at its own disk is delivered in
        place.  Retry counters survive the replan — they belong to the
        item, not the plan.
        """
        with self.tracer.span(names.SPAN_REPLAN, reason=reason) as span:
            pending = self.pending_items
            survivors = sorted(self.cluster.disks, key=repr)
            if not survivors:
                for item in pending:
                    self._strand(item)
                self._queue = []
                span.set(remaining=0, rounds=0)
                return
            cursor = 0
            new_target = self.cluster.layout.copy()
            for item in pending:
                dst = self._targets[item]
                src = self.cluster.layout.disk_of(item)
                if dst not in self.cluster.disks:
                    dst = survivors[cursor % len(survivors)]
                    cursor += 1
                    if dst == src and len(survivors) > 1:
                        dst = survivors[cursor % len(survivors)]
                        cursor += 1
                    self._targets[item] = dst
                if dst == src:
                    # Re-aimed at where it already sits: nothing to move.
                    self._states[item] = DONE
                    self._delivered.append(item)
                    self._count(names.ITEMS_RETARGETED_IN_PLACE)
                    continue
                new_target.place(item, dst)
            context = self.cluster.migration_to(new_target)
            result = plan(
                context.instance,
                method=self.method,
                seed=self.seed,
                cache=self.plan_cache,
                tracer=self.tracer,
            )
            schedule = result.schedule
            self._count(names.REPLAN_COMPONENTS_SOLVED, result.components_solved)
            self._count(names.REPLAN_COMPONENTS_CACHED, result.components_cached)
            self._install_plan(context)
            self._queue = [
                [context.edge_items[eid] for eid in rnd] for rnd in schedule.rounds
            ]
            self._replans += 1
            self._count(names.REPLANS)
            span.set(remaining=context.num_moves, rounds=len(self._queue))
            self.log.record(
                MigrationReplanned(
                    time=self._now, reason=reason, remaining_items=context.num_moves
                )
            )

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def _execute_round(self) -> None:
        round_items = [
            i for i in self._queue.pop(0) if self._states.get(i) == PENDING
        ]
        index = self._round_index
        start = self._now
        with self.tracer.span(names.SPAN_ROUND, round=index) as span:
            self._execute_round_body(round_items, index, start, span)

    def _execute_round_body(
        self, round_items: List[ItemId], index: int, start: float, span: Any
    ) -> None:
        self.log.record(
            RoundStarted(time=start, round_index=index, num_transfers=len(round_items))
        )

        # Attempt every transfer: decide outcome, then durations.
        outcomes: List[Tuple[ItemId, DiskId, DiskId, int, Optional[str]]] = []
        for item in round_items:
            self._states[item] = IN_FLIGHT
            src = self.cluster.layout.disk_of(item)
            dst = self._targets[item]
            eid = self._edge_of[item]
            reason: Optional[str] = None
            if self.faults.severed(src, dst, start):
                reason = "partition"
            elif self.faults.transfer_fails(self._rng, start):
                reason = "fault"
            elif self.policy.transfer_timeout is not None:
                solo = self.rate_model.round_duration(
                    self.cluster, self._context, [eid]
                )
                if solo > self.policy.transfer_timeout:
                    reason = "timeout"
            outcomes.append((item, src, dst, eid, reason))

        # A failed transfer still ran (and occupied bandwidth) until the
        # round's end, so the round lasts as long as its slowest attempt
        # — except timed-out attempts, which abort at the timeout.
        base_edges = [eid for (_i, _s, _d, eid, r) in outcomes if r != "timeout"]
        duration = self.rate_model.round_duration(
            self.cluster, self._context, base_edges
        )
        if any(r == "timeout" for (_i, _s, _d, _e, r) in outcomes):
            duration = max(duration, float(self.policy.transfer_timeout))
        self._now = start + duration

        succeeded = failed = 0
        escalate: Optional[ItemId] = None
        for item, src, dst, _eid, reason in outcomes:
            self._count(names.TRANSFERS_ATTEMPTED)
            if reason is None:
                self.cluster.apply_move(item, dst)
                self._states[item] = DONE
                self._delivered.append(item)
                succeeded += 1
                self._count(names.TRANSFERS_SUCCEEDED)
                self.log.record(
                    ItemMigrated(
                        time=self._now,
                        item_id=item,
                        source=src,
                        target=dst,
                        duration=duration,
                    )
                )
                continue
            failed += 1
            self._count(names.TRANSFERS_FAILED)
            self._count(names.failure_counter(reason))
            self._states[item] = PENDING
            self._attempts[item] = self._attempts.get(item, 0) + 1
            action = self.policy.decide(
                self._attempts[item], self._defers.get(item, 0)
            )
            if action is EscalationAction.RETRY:
                wait = self.policy.backoff_rounds(self._attempts[item], self._rng)
                self._inject(item, wait - 1)
                self._count(names.RETRIES)
            elif action is EscalationAction.DEFER:
                self._defers[item] = self._defers.get(item, 0) + 1
                self._attempts[item] = 0
                self._inject(item, len(self._queue))
                self._count(names.DEFERS)
            elif item in self._escalated:
                # Second trip up the whole ladder: the failure is not
                # transient and replanning won't change it.  Strand.
                self._strand(item)
            else:
                # Keep the item pending (the replan below reschedules
                # it) with a fresh retry budget for the new plan.
                self._escalated.add(item)
                self._attempts[item] = 0
                self._inject(item, 0)
                escalate = item
                self._count(names.ESCALATIONS)

        self.telemetry.record_round(
            index, start, duration, len(outcomes), succeeded, failed
        )
        span.set(
            attempted=len(outcomes),
            succeeded=succeeded,
            failed=failed,
            sim_start=start,
            sim_duration=duration,
        )
        self.log.record(RoundCompleted(time=self._now, round_index=index, duration=duration))
        self._round_index += 1
        if escalate is not None:
            self._replan(reason=f"transfer of {escalate!r} exhausted retries and defers")

    def _inject(self, item: ItemId, not_before: int) -> None:
        """Put a pending item back into the queue.

        Scans from round ``not_before`` for the first round where both
        endpoints stay within their ``c_v`` — the same feasibility
        invariant the planner guarantees — and appends a new round if
        none fits.
        """
        src = self.cluster.layout.disk_of(item)
        dst = self._targets[item]
        while len(self._queue) < not_before:
            self._queue.append([])
        for i in range(not_before, len(self._queue)):
            if self._fits(self._queue[i], src, dst):
                self._queue[i].append(item)
                return
        self._queue.append([item])

    def _fits(self, round_items: List[ItemId], src: DiskId, dst: DiskId) -> bool:
        loads: Dict[DiskId, int] = {}
        for other in round_items:
            if self._states.get(other) != PENDING:
                continue
            for disk in (self.cluster.layout.disk_of(other), self._targets[other]):
                loads[disk] = loads.get(disk, 0) + 1
        for disk in (src, dst):
            limit = self.cluster.disk(disk).transfer_limit
            if loads.get(disk, 0) + (2 if src == dst else 1) > limit:
                return False
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self) -> RunReport:
        return RunReport(
            delivered=list(self._delivered),
            stranded=list(self._stranded),
            total_time=self._now,
            rounds_executed=self._round_index,
            replans=self._replans,
            finished=self.finished,
            log=self.log,
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # checkpoint support (serialization lives in repro.runtime.checkpoint)
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """JSON-ready snapshot of everything needed to resume.

        Identifiers (items, disks) must be JSON-serializable scalars;
        the stock scenarios and workloads use strings throughout.
        """
        rng_version, rng_internal, rng_gauss = self._rng.getstate()
        return {
            "now": self._now,
            "round_index": self._round_index,
            "replans": self._replans,
            "rng_state": [rng_version, list(rng_internal), rng_gauss],
            "delivered": list(self._delivered),
            "stranded": list(self._stranded),
            "attempts": sorted(
                ([item, n] for item, n in self._attempts.items() if n),
                key=lambda kv: repr(kv[0]),
            ),
            "defers": sorted(
                ([item, n] for item, n in self._defers.items() if n),
                key=lambda kv: repr(kv[0]),
            ),
            "escalated": sorted(self._escalated, key=repr),
            "crashed_disks": sorted(self._crashed, key=repr),
            "queue": [list(rnd) for rnd in self._queue],
            "targets": [
                [item, self._targets[item]] for item in self.pending_items
            ],
            "layout": [
                [item, self.cluster.layout.disk_of(item)]
                for item in self.cluster.layout.items
            ],
            "telemetry": self.telemetry.get_state(),
        }

    @classmethod
    def from_state(
        cls,
        cluster: StorageCluster,
        state: Mapping[str, Any],
        *,
        faults: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
        rate_model: Optional[RateModel] = None,
        method: str = "auto",
        seed: int = 0,
        cache: Optional[PlanCache] = None,
        tracer: Optional[Tracer] = None,
    ) -> "MigrationExecutor":
        """Rebuild an executor from :meth:`get_state` output.

        ``cluster`` must be the *original* cluster, reconstructed the
        same way as for the interrupted run (e.g. the same scenario and
        seed); the snapshot replays crashes and the layout onto it.
        The plan cache and tracer are transient (never checkpointed):
        resuming without them only costs re-solves and observability,
        never changes plans.
        """
        ex = cls(
            cluster,
            None,  # type: ignore[arg-type] - resume path installs its own plan
            None,  # type: ignore[arg-type]
            faults=faults,
            policy=policy,
            rate_model=rate_model,
            method=method,
            seed=seed,
            cache=cache,
            tracer=tracer,
        )
        ex._now = float(state["now"])
        ex._round_index = int(state["round_index"])
        ex._replans = int(state["replans"])
        rng_version, rng_internal, rng_gauss = state["rng_state"]
        ex._rng.setstate((rng_version, tuple(rng_internal), rng_gauss))
        ex._delivered = list(state["delivered"])
        ex._stranded = list(state["stranded"])
        ex._attempts = {item: n for item, n in state["attempts"]}
        ex._defers = {item: n for item, n in state["defers"]}
        ex._escalated = set(state["escalated"])
        ex._crashed = set(state["crashed_disks"])
        for disk_id in state["crashed_disks"]:
            if disk_id in cluster.disks:
                cluster.remove_disk(disk_id)
        cluster.layout = type(cluster.layout)(
            {item: disk for item, disk in state["layout"]}
        )
        ex.telemetry = RuntimeTelemetry.from_state(state["telemetry"])
        ex._queue = [list(rnd) for rnd in state["queue"]]
        ex._targets = {item: dst for item, dst in state["targets"]}
        ex._states = {}
        for item in ex._delivered:
            ex._states[item] = DONE
        for item in ex._stranded:
            ex._states[item] = FAILED
        for rnd in ex._queue:
            for item in rnd:
                ex._states.setdefault(item, PENDING)
        # Rebuild the residual plan context so rate models see the
        # same endpoints and item sizes as the uninterrupted run.
        new_target = cluster.layout.copy()
        for item, dst in ex._targets.items():
            if ex._states.get(item) == PENDING:
                new_target.place(item, dst)
        ex._install_plan(cluster.migration_to(new_target))
        return ex
