"""The request broker: admission, coalescing, deadlines, drain.

One broker sits between the HTTP layer and the planning pipeline and
owns every concurrency decision the service makes:

* **bounded admission** — requests enter a fixed-capacity queue; a
  full queue answers a typed ``overloaded`` error immediately
  (backpressure) instead of buffering without bound;
* **per-client rate limiting** — a token bucket per client id, run on
  the event loop's monotonic clock;
* **single-flight coalescing** — concurrent requests that share a
  pipeline fingerprint (same instance structure, method, seed,
  certify flag) attach to the *one* in-flight solve and each receive
  the identical canonical plan.  Under duplicate-heavy traffic the
  service does O(distinct) work for O(requests) load;
* **deadlines** — a request whose ``timeout`` elapses answers a typed
  ``deadline`` error; a solve already running completes anyway (its
  result still lands in the cache, and coalesced waiters with looser
  deadlines still get it), and a queued flight whose deadline passed
  is never solved;
* **one flight per consumer** — each of ``concurrency`` consumers takes
  one queued flight, checks its deadline, solves it on a planner
  thread and marks it done before taking the next, so the admission
  queue bounds every flight not being solved.  Each solve is one
  :func:`repro.plan` call on that thread;
* **graceful drain** — :meth:`RequestBroker.drain` stops admission
  (new requests get a typed ``draining`` error), finishes every
  admitted solve, then retires the consumers and planner threads.

Determinism: the broker never touches schedule bytes.  Solves go
through the ordinary pipeline with the shared (store-backed)
:class:`~repro.pipeline.cache.PlanCache`, and responses carry the
canonical pair-token payload, so a served plan is byte-identical to a
direct :func:`repro.plan` call whatever the admission order,
coalescing history, or cache state.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.obs import names
from repro.obs.trace import Tracer, ensure_tracer
from repro.pipeline.cache import PlanCache
from repro.pipeline.planner import StoredPlanMismatchError, plan
from repro.serve.protocol import (
    PlanRequest,
    ProtocolError,
    plan_response,
    schedule_payload,
)


@dataclass(frozen=True)
class BrokerConfig:
    """Tuning knobs (all have serving-sane defaults).

    Attributes:
        max_queue: admission bound; a full queue rejects.
        concurrency: planner threads = concurrent :func:`repro.plan`
            calls.
        rate_limit: per-client steady admissions/second; 0 disables.
        rate_burst: token-bucket capacity (burst allowance).
        default_timeout: deadline in seconds (finite, > 0) for requests
            that do not set one; ``None`` means wait indefinitely.
    """

    max_queue: int = 64
    concurrency: int = 2
    rate_limit: float = 0.0
    rate_burst: int = 8
    default_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be >= 0")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        timeout = self.default_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError("default_timeout must be a finite number > 0, or None")


class OverloadedError(ProtocolError):
    """Admission queue is full; retry with backoff."""

    def __init__(self, depth: int) -> None:
        super().__init__(
            "overloaded",
            f"admission queue is full ({depth} requests pending)",
            http_status=503,
        )


class RateLimitedError(ProtocolError):
    """The client exceeded its token bucket."""

    def __init__(self, client: str) -> None:
        super().__init__(
            "rate-limited",
            f"client {client!r} exceeded its request rate",
            http_status=429,
        )


class DrainingError(ProtocolError):
    """The server is draining and admits no new work."""

    def __init__(self) -> None:
        super().__init__(
            "draining", "server is draining; request not admitted",
            http_status=503,
        )


class DeadlineError(ProtocolError):
    """The request's deadline elapsed before its solve finished."""

    def __init__(self, timeout: float) -> None:
        super().__init__(
            "deadline",
            f"request deadline of {timeout:g}s elapsed",
            http_status=504,
        )


@dataclass
class _Flight:
    """One admitted request travelling through the queue."""

    request: PlanRequest
    future: "asyncio.Future[Dict[str, Any]]"
    admitted_at: float
    deadline: Optional[float]


class RequestBroker:
    """See module docstring.  Create, :meth:`start`, :meth:`submit`."""

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        config: Optional[BrokerConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else BrokerConfig()
        self.cache = cache if cache is not None else PlanCache()
        self.tracer = ensure_tracer(tracer)
        self._queue: "asyncio.Queue[_Flight]" = asyncio.Queue(
            maxsize=self.config.max_queue
        )
        #: fingerprint -> the future every coalesced waiter attaches to.
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        #: client id -> (tokens, last refill time).
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._consumers: list["asyncio.Task[None]"] = []
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix="repro-serve-plan",
        )
        self._draining = False
        self._started = False
        #: last-synced cache store counters (for monotonic deltas).
        self._store_seen = (0, 0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the consumer tasks; idempotent."""
        if self._started:
            return
        self._started = True
        for k in range(self.config.concurrency):
            self._consumers.append(
                asyncio.get_running_loop().create_task(
                    self._consume(), name=f"repro-serve-consumer-{k}"
                )
            )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    async def drain(self) -> None:
        """Stop admission, finish every admitted solve, retire workers."""
        self._draining = True
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
        for task in self._consumers:
            task.cancel()
        await asyncio.gather(*self._consumers, return_exceptions=True)
        self._consumers.clear()
        # shutdown(wait=True) joins worker threads — run it off-loop so a
        # slow final solve can't freeze health checks and other servers
        # sharing this event loop.
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self._threads.shutdown, wait=True)
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit_rate(self, client: str, now: float) -> bool:
        cfg = self.config
        if cfg.rate_limit <= 0:
            return True
        tokens, last = self._buckets.get(client, (float(cfg.rate_burst), now))
        tokens = min(float(cfg.rate_burst), tokens + (now - last) * cfg.rate_limit)
        allowed = tokens >= 1.0
        if allowed:
            tokens -= 1.0
        self._buckets[client] = (tokens, now)
        return allowed

    async def submit(self, request: PlanRequest, client: str = "") -> Dict[str, Any]:
        """Admit, (maybe) coalesce, and answer one request.

        Returns the full response payload (:func:`plan_response`).

        Raises:
            DrainingError / OverloadedError / RateLimitedError /
                DeadlineError: typed admission and deadline failures.
            ProtocolError: ``internal`` when the solve itself raised.
        """
        if not self._started:
            await self.start()
        loop = asyncio.get_running_loop()
        now = loop.time()
        if self._draining:
            self.tracer.count(names.SERVE_REQUESTS_REJECTED)
            raise DrainingError()
        if not self._admit_rate(client, now):
            self.tracer.count(names.SERVE_REQUESTS_REJECTED)
            raise RateLimitedError(client)

        timeout = (
            request.timeout
            if request.timeout is not None
            else self.config.default_timeout
        )
        fingerprint = request.fingerprint
        existing = self._inflight.get(fingerprint)
        if existing is not None:
            self.tracer.count(names.SERVE_REQUESTS_COALESCED)
            core = await self._await_result(existing, timeout)
            return plan_response(
                request,
                core["plan"],
                coalesced=True,
                lower_bound=core.get("lower_bound"),
                certified_optimal=core.get("certified_optimal"),
            )

        if self._queue.full():
            self.tracer.count(names.SERVE_REQUESTS_REJECTED)
            raise OverloadedError(self._queue.qsize())
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        flight = _Flight(
            request=request,
            future=future,
            admitted_at=now,
            deadline=None if timeout is None else now + timeout,
        )
        self._inflight[fingerprint] = future
        self._queue.put_nowait(flight)
        self.tracer.count(names.SERVE_REQUESTS_ADMITTED)
        self.tracer.gauge(names.SERVE_QUEUE_DEPTH, self._queue.qsize())
        core = await self._await_result(future, timeout)
        return plan_response(
            request,
            core["plan"],
            coalesced=False,
            lower_bound=core.get("lower_bound"),
            certified_optimal=core.get("certified_optimal"),
        )

    async def _await_result(
        self,
        future: "asyncio.Future[Dict[str, Any]]",
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        # shield(): one waiter timing out must not cancel the shared
        # solve other coalesced waiters are attached to.
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            assert timeout is not None
            raise DeadlineError(timeout) from None

    # ------------------------------------------------------------------
    # consumers
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        while True:
            flight = await self._queue.get()
            self.tracer.gauge(names.SERVE_QUEUE_DEPTH, self._queue.qsize())
            try:
                await self._solve_flight(flight)
            finally:
                self._queue.task_done()
                # Let go of the answered flight (its request, instance
                # and future) before waiting for the next one.
                del flight

    async def _solve_flight(self, flight: _Flight) -> None:
        loop = asyncio.get_running_loop()
        fingerprint = flight.request.fingerprint
        try:
            if flight.deadline is not None and loop.time() > flight.deadline:
                raise DeadlineError(
                    flight.deadline - flight.admitted_at
                )
            with self.tracer.span(
                names.SPAN_SERVE_SOLVE,
                fingerprint=fingerprint,
                method=flight.request.method,
            ):
                core = await loop.run_in_executor(
                    self._threads, self._solve, flight.request
                )
        except ProtocolError as exc:
            self._finish(fingerprint, flight.future, error=exc)
        except StoredPlanMismatchError as exc:  # a corrupt or foreign store record
            error = ProtocolError("stored-plan-mismatch", str(exc), http_status=500)
            self._finish(fingerprint, flight.future, error=error)
        except Exception as exc:  # planner bug: answer typed, keep serving
            self._finish(
                fingerprint,
                flight.future,
                error=ProtocolError(
                    "internal", f"solve failed: {exc}", http_status=500
                ),
            )
        else:
            self._finish(fingerprint, flight.future, result=core)
            self.tracer.count(names.SERVE_REQUESTS_COMPLETED)
            self.tracer.observe(
                names.SERVE_LATENCY, loop.time() - flight.admitted_at
            )
        self._sync_store_counters()

    def _finish(
        self,
        fingerprint: str,
        future: "asyncio.Future[Dict[str, Any]]",
        result: Optional[Dict[str, Any]] = None,
        error: Optional[ProtocolError] = None,
    ) -> None:
        # Remove from the single-flight table *before* resolving, so a
        # request arriving after completion starts a fresh (cached,
        # hence cheap) solve instead of reading stale state.
        self._inflight.pop(fingerprint, None)
        if future.cancelled():
            return
        if error is not None:
            self.tracer.count(names.SERVE_REQUESTS_FAILED)
            future.set_exception(error)
            # Waiters read the error through their shields; a flight
            # whose waiters all left (an expired queued one) has no
            # reader, so mark it retrieved instead of leaving asyncio
            # to log it when the future is collected.
            future.exception()
        else:
            assert result is not None
            future.set_result(result)

    def _solve(self, request: PlanRequest) -> Dict[str, Any]:
        """Run one pipeline plan; executes on a planner thread."""
        result = plan(
            request.instance,
            method=request.method,
            seed=request.seed,
            cache=self.cache,
            certify=request.certify,
        )
        core: Dict[str, Any] = {
            "plan": schedule_payload(request.instance, result.schedule),
        }
        if request.certify:
            core["lower_bound"] = result.lower_bound
            core["certified_optimal"] = result.certified_optimal
        return core

    def _sync_store_counters(self) -> None:
        """Mirror the cache's store hit/miss totals into the tracer."""
        hits, misses = (
            self.cache.stats.store_hits,
            self.cache.stats.store_misses,
        )
        seen_hits, seen_misses = self._store_seen
        if hits > seen_hits:
            self.tracer.count(names.STORE_HITS, hits - seen_hits)
        if misses > seen_misses:
            self.tracer.count(names.STORE_MISSES, misses - seen_misses)
        self._store_seen = (hits, misses)
