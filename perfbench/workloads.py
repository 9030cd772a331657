"""The four workloads: what each feeds the program and why.

Every op goes through the public API only: :func:`repro.plan`,
:func:`repro.plan_delta`, or the ``repro-migrate serve`` HTTP service.
Calls are serial with default arguments (no process pool), so a later
change that turns the pool on is measured rather than assumed.

The op count of a run is a fixed function of ``--seconds`` (a nominal
per-op cost, never a measurement), so two runs of one seed do the same
work and their timing-independent counters must match exactly.

Layer loads, from the per-layer table (heavy / light):

========================  =================================================
workload                  loads heavily                / lightly or not
========================  =================================================
``plan-even``             Theorem 4.1 path: augment,   general solver, LB2
                          Euler orientation, Dinic     exact, delta, cache,
                          peels; array lower; canonical  exact, serve
``plan-odd``              general solver (Phase 1/2,   even_optimal, Euler,
                          recolor), exhaustive LB2,    peels, delta, cache,
                          certify, solve restarts      serve
``replan-delta``          delta apply/patch, cache,    cold solves, exact,
                          decompose/merge/tokens over  serve
                          unchanged components
``serve-mixed``           broker, protocol, HTTP,      delta; in-process
                          exact_bb, cached plans and   layer spans (the
                          bounds                       server is its own
                                                       process)
========================  =================================================
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from perfbench import checks
from perfbench.inputs import (
    Spec,
    Tick,
    delta_chain,
    fleet_instance,
    random_instance,
    regular_instance,
    request_script,
    serve_instance,
)
from perfbench.layers import LayerTracer
from perfbench.reference import Clock

from repro import InstanceDelta, MigrationInstance, PlanCache, PlanResult, plan, plan_delta
from repro.checks.certify import make_certificate, rounds_digest, verify_certificate
from repro.serve.protocol import (
    ProtocolError,
    canonical_json,
    parse_response,
    plan_request_payload,
    rehydrate_schedule,
    validate_plan_response,
)
from repro.workloads.io import instance_from_json, instance_to_json


def build(spec: Spec) -> MigrationInstance:
    return MigrationInstance.from_moves(list(spec.moves), spec.capacities)


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    #: op times, scaled to the reference speed in untraced runs
    #: (:mod:`perfbench.reference`); the end-to-end metrics read these.
    op_seconds: List[float] = field(default_factory=list)
    #: the same ops' raw wall times, for the report.
    op_wall: List[float] = field(default_factory=list)
    op_items: List[int] = field(default_factory=list)
    #: time of the whole measured phase (closed-loop throughput), scaled
    #: like ``op_seconds``.
    measured_seconds: float = 0.0
    rounds: int = 0
    bound: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: timing-independent counters, compared exactly across repeats.
    counters: Dict[str, Any] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    #: per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: Optional[float] = None

    def record(self, wall: float, scale: float = 1.0) -> None:
        """One op's wall time, and the same times ``scale``."""
        self.op_wall.append(wall)
        self.op_seconds.append(wall * scale)

    def fail(self, where: str, problems: Sequence[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


#: the CPUs this run may use, read before any pinning narrows them.
CPUS = sorted(os.sched_getaffinity(0))
#: the serve process's CPU (None: unpinned, on a one-CPU machine).
SERVER_CPU: Optional[int] = CPUS[0] if len(CPUS) >= 2 else None


def pin(first: bool) -> None:
    """Pin this process to the first allowed CPU, or to the others.

    Serving runs the server on the first CPU and the client on the
    rest, so they never trade places mid-run; the in-process workloads
    run on the rest as well.  A one-CPU machine stays unpinned."""
    if SERVER_CPU is not None:
        os.sched_setaffinity(0, {SERVER_CPU} if first else set(CPUS[1:]))


def n_ops(seconds: float, nominal: float, minimum: int, step: int = 1) -> int:
    """Op count for a run of ``seconds``: a multiple of ``step``."""
    n = max(minimum, round(seconds / nominal))
    return -(-n // step) * step


def _timed_call(
    tracer: Optional[LayerTracer], fn: Callable[[], Any]
) -> Tuple[Any, float]:
    """``fn()`` and its wall time; traced, when a tracer is given."""
    # The previous op's garbage is collected here, not billed to this op.
    gc.collect()
    if tracer is None:
        start = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - start
    with tracer.installed(), tracer.op():
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
    return value, elapsed


# ----------------------------------------------------------------------
# plan-even / plan-odd: cold certified plans
# ----------------------------------------------------------------------

#: seed of the warm-up instances, whatever the run's seed.
WARMUP_SEED = 0


@dataclass
class ColdState:
    """What a cold-plan run needs: its instances are built per op."""

    seed: int
    ops: int
    tiny: bool


@dataclass
class ColdPlans:
    """Cold ``repro.plan(inst, certify=True)`` calls, no cache, over
    instances of two alternating shapes."""

    name: str
    why: str
    #: ``shape(seed, op index, tiny)``: even and odd indices alternate
    #: the two shapes.
    shape: Callable[[int, int, bool], Spec]
    nominal_op_s: float
    #: where the measured work runs (None: this process's CPUs).
    work_cpu: ClassVar[Optional[int]] = None

    def setup(self, seed: int, seconds: float, tiny: bool) -> ColdState:
        pin(first=False)
        # Warm-up on tiny instances of both shapes: lazy imports
        # (certifier, exact search) and first-call costs land here, not
        # in the first timed op.  They are the same for every seed, so
        # set-up time does not vary with it.
        for i in (0, 1):
            plan(build(self.shape(WARMUP_SEED, i, True)), certify=True)
        return ColdState(seed, n_ops(seconds, self.nominal_op_s, 2, step=2), tiny)

    def run(self, state: ColdState, tracer: Optional[LayerTracer]) -> Outcome:
        out = Outcome()
        overhead = [0.0, 0.0]
        ops = state.ops
        clock = Clock() if tracer is None else None
        if tracer is not None:
            # Each op runs twice; half of them keeps the run length.
            ops = max(2, ops // 4 * 2)
        for k in range(ops):
            # Each instance is built just before its op and dropped with
            # it, so peak memory is one instance and its plan, whatever
            # the run length.
            gc.collect()
            inst = build(self.shape(state.seed, k, state.tiny))
            self._op(out, k, inst, tracer, clock, overhead)
        if tracer is not None:
            out.layers["tracing_overhead_share"] = (
                (overhead[1] - overhead[0]) / overhead[0] if overhead[0] else 0.0
            )
        return out

    @staticmethod
    def _op(out: Outcome, k: int, inst: MigrationInstance, tracer: Optional[LayerTracer],
            clock: Optional[Clock], overhead: List[float]) -> None:
        out.attempted += 1
        try:
            if tracer is not None and k % 2 == 0:
                # The same op untraced, alternately before and after
                # the traced one: the difference is the tracing
                # overhead (the plan is a pure function of its input).
                overhead[0] += _timed_call(None, lambda: plan(inst, certify=True))[1]
            result, elapsed = _timed_call(tracer, lambda: plan(inst, certify=True))
        except Exception as exc:  # an op that raises is a failed op
            out.fail(f"op {k}", [f"plan raised {exc!r}"])
            return
        if tracer is not None:
            overhead[1] += elapsed
            if k % 2 == 1:
                overhead[0] += _timed_call(None, lambda: plan(inst, certify=True))[1]
        out.record(elapsed, clock.factor() if clock is not None else 1.0)
        out.op_items.append(inst.num_items)
        problems, bound = checks.check_plan(inst, result)
        out.fail(f"op {k}", problems)
        out.rounds += result.num_rounds
        out.bound += bound
        out.digests.append(rounds_digest(result.schedule.rounds))
        out.count("components", len(result.components))
        out.count("rounds", result.num_rounds)
        out.count("lower_bound", bound)
        for method, used in sorted(result.methods_used().items()):
            out.count(f"method.{method}", used)


def _even_shape(seed: int, i: int, tiny: bool) -> Spec:
    if i % 2 == 0:
        # Flow-bound: few disks, many parallel moves, Δ' ≈ 145.
        return random_instance(seed, f"fb{i}", 16 if tiny else 64,
                               600 if tiny else 8000, (2, 4))
    # Wide regular: many disks, 68-regular, Δ' = 34.
    return regular_instance(seed, f"rg{i}", 40 if tiny else 400, 8 if tiny else 68, 2)


def _odd_shape(seed: int, i: int, tiny: bool) -> Spec:
    if i % 2 == 0:
        # Rack-confined fleet: 16 racks of 9 disks (exhaustive LB2)
        # plus 4 unit-capacity odd cycles (Phase 1 stalls, Phase 2).
        # Racks of one size: LB2's cost grows steeply with rack size, and
        # mixed sizes made op costs vary by 2x from instance to instance.
        return fleet_instance(seed, f"fl{i}", 3 if tiny else 16,
                              (6, 11) if tiny else (9, 9),
                              (20, 40) if tiny else (90, 90), (1, 2, 3),
                              odd_cycles=2 if tiny else 4)
    # One big random component: general solver, heuristic LB2.
    return random_instance(seed, f"rd{i}", 60 if tiny else 400,
                           600 if tiny else 8000, (1, 2, 3))


# Both shapes of a workload cost about the same (~0.4-0.8 s here), so
# the median op sits inside one cost band, and a run holds enough ops
# for its tail to be a percentile rather than a maximum.
PLAN_EVEN = ColdPlans(
    name="plan-even",
    why=("Theorem 4.1 path (augment, Euler orientation, Dinic peels) on "
         "flow-bound and wide-regular even instances; no other workload runs it"),
    shape=_even_shape,
    nominal_op_s=0.7,
)

PLAN_ODD = ColdPlans(
    name="plan-odd",
    why=("Theorem 5.1 general solver and exhaustive LB2 on rack fleets with "
         "odd cycles and a big random instance; none of this runs in plan-even"),
    shape=_odd_shape,
    nominal_op_s=0.5,
)


# ----------------------------------------------------------------------
# replan-delta: a chain of plan_delta ticks on a shared cache
# ----------------------------------------------------------------------

@dataclass
class ReplanState:
    base: MigrationInstance
    ticks: List[Tick]
    deltas: List[InstanceDelta]
    cache: PlanCache
    prior: PlanResult


def _replan_base(seed: int, tiny: bool) -> Spec:
    return fleet_instance(seed, "rp", 6 if tiny else 40, (10, 10) if tiny else (25, 25),
                          (60, 60) if tiny else (500, 500), (1, 2, 3))


def _tick_delta(tick: Tick) -> InstanceDelta:
    return InstanceDelta(
        add_moves=tick.adds,
        remove_moves=tick.removes,
        retarget_moves=tick.retargets,
        capacity_changes=tick.capacities,
    )


class ReplanDelta:
    """``plan_delta(prior, delta, cache=shared, certify=True)`` ticks."""

    name = "replan-delta"
    work_cpu = None
    why = ("chain of 1% plan_delta ticks on a 20k-item rack fleet with a shared "
           "PlanCache: mutation and reuse instead of cold solves")
    nominal_op_s = 0.45

    def setup(self, seed: int, seconds: float, tiny: bool) -> ReplanState:
        pin(first=False)
        spec = _replan_base(seed, tiny)
        ticks = delta_chain(seed, spec, n_ops(seconds, self.nominal_op_s, 12))
        base = build(spec)
        return self.anchor(base, ticks, [_tick_delta(t) for t in ticks])

    @staticmethod
    def anchor(base: MigrationInstance, ticks: List[Tick], deltas: List[InstanceDelta]
               ) -> ReplanState:
        """The prior plan every chain starts from, on a fresh cache."""
        cache = PlanCache(max_entries=1 << 16)
        prior = plan(base, cache=cache, certify=True)
        return ReplanState(base, ticks, deltas, cache, prior)

    def run(self, state: ReplanState, tracer: Optional[LayerTracer]) -> Outcome:
        if tracer is None:
            return self._chain(state, None, len(state.ticks), Clock())
        # The first half of the chain untraced, traced, and untraced
        # again, each from a fresh anchor: the traced time against the
        # mean untraced time is the tracing overhead, free of any
        # first-run or second-run bias.
        half = max(1, len(state.ticks) // 2)

        def chain(with_tracer: Optional[LayerTracer]) -> Outcome:
            fresh = self.anchor(state.base, state.ticks, state.deltas)
            return self._chain(fresh, with_tracer, half)

        before = sum(chain(None).op_seconds)
        out = chain(tracer)
        after = sum(chain(None).op_seconds)
        out.layers["tracing_overhead_share"] = (
            2.0 * sum(out.op_seconds) / (before + after) - 1.0
        )
        return out

    def _chain(self, state: ReplanState, tracer: Optional[LayerTracer], n: int,
               clock: Optional[Clock] = None) -> Outcome:
        out = Outcome()
        prior = state.prior
        cache = state.cache
        before = checks.directed_moves(prior.instance)
        ledger = Counter(before)
        capacities = dict(state.base.capacities)
        hits = [0, 0, 0, 0]
        for k, (tick, delta) in enumerate(zip(state.ticks[:n], state.deltas[:n])):
            out.attempted += 1
            ledger = ledger - Counter(tick.removed) + Counter(tick.added)
            capacities.update(tick.capacities)
            s0 = (cache.stats.plan_hits, cache.stats.plan_misses,
                  cache.stats.bound_hits, cache.stats.bound_misses)
            try:
                result, elapsed = _timed_call(
                    tracer, lambda: plan_delta(prior, delta, cache=cache, certify=True)
                )
            except Exception as exc:  # a tick that raises is a failed op
                out.fail(f"tick {k}", [f"plan_delta raised {exc!r}"])
                # Re-anchor on the ledger so the chain goes on.
                anchor = MigrationInstance.from_moves(list(ledger.elements()), capacities)
                prior = plan(anchor, cache=cache, certify=True)
                before = checks.directed_moves(anchor)
                continue
            s1 = (cache.stats.plan_hits, cache.stats.plan_misses,
                  cache.stats.bound_hits, cache.stats.bound_misses)
            for i in range(4):
                hits[i] += s1[i] - s0[i]
            out.record(elapsed, clock.factor() if clock is not None else 1.0)
            out.op_items.append(result.instance.num_items)

            patched = result.instance
            problems, bound = checks.check_plan(patched, result)
            problems += checks.check_patch(prior, delta, result)
            full = plan(patched, seed=result.seed, cache=cache)
            problems += checks.check_same_bytes(
                "plan(patched, shared cache)", full.schedule.rounds, result.schedule.rounds
            )
            after = checks.directed_moves(patched)
            problems += checks.check_directed_change(before, after, tick.removed, tick.added)
            out.fail(f"tick {k}", problems)

            out.rounds += result.num_rounds
            out.bound += bound
            out.digests.append(rounds_digest(result.schedule.rounds))
            out.count("components", len(result.components))
            out.count("reused", result.components_reused)
            out.count("patched", result.components_patched)
            out.count("resolved", result.components_resolved)
            out.count("patched_edges", result.patched_edges)
            out.count("fallbacks", result.fallbacks)
            out.count("lower_bound", bound)
            before, prior = after, result
        for key, value in zip(("plan_hits", "plan_misses", "bound_hits", "bound_misses"), hits):
            out.counters[f"cache.{key}"] = value
        return out


# ----------------------------------------------------------------------
# serve-mixed: the HTTP service under one closed-loop client
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
#: scratch space inside the checkout for the server's trace file.
TMP = ROOT / ".perfbench_tmp"
#: planner threads of the server; the one client never fills both.
CONCURRENCY = 2
#: requests between two reads of the host's speed (perfbench.reference).
SCALE_BLOCK = 50
HOT = 32


def _die_with_parent() -> None:
    """In the child: get SIGTERM when the benchmark process dies, so a
    killed run never leaves a server behind (Linux ``PR_SET_PDEATHSIG``)."""
    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGTERM)
    pin(first=True)


class Server:
    """``repro-migrate serve --port 0 --concurrency 2`` in its own
    process, stopped by SIGTERM (graceful drain) on exit."""

    def __init__(self, trace_out: Optional[Path] = None) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--concurrency", str(CONCURRENCY)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        # Unbuffered: the "listening on" line must arrive while it runs.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, preexec_fn=_die_with_parent,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("POST", path, body=body, headers={
                "Connection": "close", "Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            return conn.getresponse().read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@dataclass
class ServeState:
    script: List[Tuple[str, bool]]
    instances: Dict[str, MigrationInstance]
    bodies: Dict[Tuple[str, bool], bytes]
    server: Optional[Server] = None
    #: ``/metrics`` right after the hot-set fill.
    baseline: str = ""


class ServeMixed:
    """One closed-loop client against the planning service.

    One client, not two: the server plans on threads under one GIL, so a
    second client added no throughput and only made cache hits wait on
    GIL hand-offs behind a concurrent solve, which moved the median
    latency by up to 1.7x from run to run."""

    name = "serve-mixed"
    #: where the measured work runs: the server's CPU.
    work_cpu = SERVER_CPU
    why = ("one closed-loop client on the HTTP service: Zipf-hot cached instances "
           "mixed with never-seen ones of three sizes; the only broker/HTTP load")
    nominal_op_s = 1.0 / 45

    def setup(self, seed: int, seconds: float, tiny: bool) -> ServeState:
        pin(first=False)
        script = request_script(seed, n_ops(seconds, self.nominal_op_s, 40, step=10),
                                4 if tiny else HOT)
        keys = sorted({key for key, _ in script} | {f"hot{k:02d}" for k in range(4 if tiny else HOT)})
        instances: Dict[str, MigrationInstance] = {}
        bodies: Dict[Tuple[str, bool], bytes] = {}
        for key in keys:
            wire = instance_from_json(instance_to_json(build(serve_instance(seed, key, tiny))))
            instances[key] = wire
            for certify in (False, True):
                bodies[key, certify] = canonical_json(
                    plan_request_payload(wire, certify=certify)
                )
        state = ServeState(script, instances, bodies)
        self.boot(state)
        return state

    def boot(self, state: ServeState, trace_out: Optional[Path] = None) -> None:
        """Start a server and fill its cache with the hot set (both
        endpoints' work: a certify request caches plan and bound)."""
        state.server = Server(trace_out)
        hot = [key for key in state.instances if key.startswith("hot")]
        try:
            self._drive(state.server, [(key, True) for key in hot], state.bodies)
            state.baseline = state.server.get("/metrics").decode()
        except BaseException:
            self.teardown(state)
            raise

    @staticmethod
    def teardown(state: ServeState) -> None:
        if state.server is not None:
            state.server.stop()
            state.server = None

    @staticmethod
    def _drive(
        server: Server, script: Sequence[Tuple[str, bool]],
        bodies: Dict[Tuple[str, bool], bytes], clock: Optional[Clock] = None,
    ) -> Tuple[List[Tuple[int, bytes, float, float]], float]:
        """Closed loop: each request is sent only after the previous
        answer.  Each reply carries its wall time and the scale factor
        of its block of :data:`SCALE_BLOCK` requests (1 without a clock);
        the second value is the scaled time of the whole loop."""
        replies: List[Tuple[int, bytes, float, float]] = []
        measured = 0.0
        for first in range(0, len(script), SCALE_BLOCK):
            block: List[Tuple[int, bytes, float]] = []
            start = time.perf_counter()
            for key, certify in script[first:first + SCALE_BLOCK]:
                path = "/v1/certify" if certify else "/v1/plan"
                sent = time.perf_counter()
                try:
                    status, raw = server.post(path, bodies[key, certify])
                except (OSError, http.client.HTTPException) as exc:
                    status, raw = 0, repr(exc).encode()  # checked as failed
                block.append((status, raw, time.perf_counter() - sent))
            wall = time.perf_counter() - start
            # The server is idle between blocks, so the kernel reads its
            # CPU's speed undisturbed.
            scale = clock.factor() if clock is not None else 1.0
            measured += wall * scale
            replies.extend((status, raw, seconds, scale) for status, raw, seconds in block)
        return replies, measured

    def run(self, state: ServeState, tracer: Optional[LayerTracer]) -> Outcome:
        try:
            if tracer is None:
                # Scaled by both sides' speed: a cache hit's latency is
                # as much the client's and the loopback's as the server's.
                return self._serve(state, state.script, None, Clock((SERVER_CPU, None)))
            # Half the script on the plain server, the same half on a
            # server writing its trace: the difference is the tracing
            # overhead.
            half = state.script[: max(10, len(state.script) // 2)]
            plain = self._serve(state, half, None)
            self.teardown(state)
            TMP.mkdir(exist_ok=True)
            trace_out = TMP / f"serve-trace-{os.getpid()}.jsonl"
            self.boot(state, trace_out)
            out = self._serve(state, half, trace_out)
            out.layers["tracing_overhead_share"] = (
                statistics.median(out.op_seconds) / statistics.median(plain.op_seconds) - 1.0
            )
            return out
        finally:
            self.teardown(state)

    def _serve(self, state: ServeState, script: Sequence[Tuple[str, bool]],
               trace_out: Optional[Path], clock: Optional[Clock] = None) -> Outcome:
        assert state.server is not None
        out = Outcome()
        replies, out.measured_seconds = self._drive(state.server, script, state.bodies, clock)
        metrics_text = state.server.get("/metrics").decode() if trace_out else ""
        out.peak_rss_mb = state.server.peak_rss_mb()
        if trace_out is not None:
            self.teardown(state)  # drain flushes the trace file

        plan_bytes: Dict[str, bytes] = {}
        bounds: Dict[str, int] = {}
        for i, ((key, certify), (status, raw, seconds, scale)) in enumerate(zip(script, replies)):
            out.attempted += 1
            inst = state.instances[key]
            out.record(seconds, scale)
            out.op_items.append(inst.num_items)
            problems: List[str] = []
            try:
                payload = parse_response(raw)
                if status != 200 or payload.get("kind") == "error":
                    raise ProtocolError(str(payload.get("code")), str(payload.get("message")))
                problems += validate_plan_response(payload)
                schedule = rehydrate_schedule(inst, payload["plan"])
                problems += checks.check_schedule(inst, schedule)
                encoded = canonical_json(payload["plan"])
                if plan_bytes.setdefault(key, encoded) != encoded:
                    problems.append(f"{key}: identical requests got different plan bytes")
                if certify:
                    if key not in bounds:
                        bounds[key] = verify_certificate(inst, make_certificate(inst))
                    if payload.get("lower_bound") != bounds[key]:
                        problems.append(
                            f"{key}: lower bound {payload.get('lower_bound')} "
                            f"but the certifier proves {bounds[key]}")
                    out.rounds += schedule.num_rounds
                    out.bound += bounds[key]
            except ProtocolError as exc:
                problems.append(f"{exc.code}: {exc}")
            out.fail(f"request {i} ({key})", problems)
        for key in sorted(plan_bytes):
            out.digests.append(f"{key}:{hashlib.sha256(plan_bytes[key]).hexdigest()}")
        out.counters["requests"] = len(script)
        out.counters["distinct_instances"] = len(plan_bytes)
        if trace_out is not None:
            out.layers.update(_serve_layers(state.baseline, metrics_text, trace_out, out))
            trace_out.unlink()
            if not any(TMP.iterdir()):
                TMP.rmdir()
        return out


def _prometheus(text: str) -> Tuple[Dict[str, float], List[Tuple[float, float]]]:
    """Counters and the latency histogram's cumulative buckets."""
    values: Dict[str, float] = {}
    buckets: List[Tuple[float, float]] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("repro_serve_request_seconds_bucket"):
            le = name.split('le="', 1)[1].split('"', 1)[0]
            buckets.append((float("inf") if le == "+Inf" else float(le), float(value)))
        else:
            values[name] = float(value)
    return values, buckets


def _bucket_quantile(buckets: List[Tuple[float, float]], q: float) -> float:
    """Linear interpolation inside the bucket holding quantile ``q``
    (Prometheus ``histogram_quantile``)."""
    total = buckets[-1][1] if buckets else 0.0
    if total == 0:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            span = count - lower_count
            return lower_bound + (bound - lower_bound) * ((rank - lower_count) / span if span else 1.0)
        lower_bound, lower_count = bound, count
    return lower_bound


def _serve_layers(
    baseline: str, metrics_text: str, trace_out: Path, out: Outcome
) -> Dict[str, float]:
    """Broker/HTTP layer metrics for the measured requests: the change
    in ``/metrics`` since the hot-set fill, and the trace file's
    ``serve.solve`` spans after the fill's own."""
    before, before_buckets = _prometheus(baseline)
    values, buckets = _prometheus(metrics_text)
    delta = {k: v - before.get(k, 0.0) for k, v in values.items()}
    buckets = [(le, n - m) for (le, n), (_le, m) in zip(buckets, before_buckets)]
    n = max(1, out.attempted)
    server_p50_ms = _bucket_quantile(buckets, 0.5) * 1000.0
    skip = int(before.get("repro_serve_requests_admitted", 0))
    solve_wall = 0.0
    with trace_out.open() as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") == "span" and record.get("name") == "serve.solve":
                if skip:
                    skip -= 1
                else:
                    solve_wall += float(record["wall"])
    layers = {
        f"serve.{name}": delta.get(f"repro_serve_requests_{name}", 0.0) / n
        for name in ("admitted", "coalesced", "rejected", "failed")
    }
    layers["serve.server_p50_ms"] = server_p50_ms
    # Means, not p50s: the server's latency histogram has coarse buckets,
    # its sum is exact.
    latency_total = delta.get("repro_serve_request_seconds_sum", 0.0)
    served = delta.get("repro_serve_request_seconds_count", 0.0)
    layers["serve.http_overhead_ms"] = 1000.0 * (
        statistics.fmean(out.op_seconds) - (latency_total / served if served else 0.0)
    )
    # serve.solve spans hold no traced children (the server plans
    # untraced), so their wall time is their self time.
    layers["serve.solve.self_s"] = solve_wall / n
    layers["serve.queue_wait_s"] = max(0.0, latency_total - solve_wall) / n
    return layers


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (PLAN_EVEN, PLAN_ODD, ReplanDelta(), ServeMixed())
}
