"""Tests for the request broker (repro.serve.broker).

These run real asyncio event loops via ``asyncio.run`` and gate the
solve path with threading events, so coalescing windows and drain
ordering are deterministic rather than timing-dependent.
"""

import asyncio
import gc
import logging
import threading
import weakref

import pytest

from repro.obs import names
from repro.obs.trace import Tracer
from repro.pipeline import plan
from repro.pipeline.cache import CachedPlan, PlanCache
from repro.serve.broker import (
    BrokerConfig,
    DeadlineError,
    DrainingError,
    OverloadedError,
    RateLimitedError,
    RequestBroker,
)
from repro.serve.protocol import ProtocolError
from repro.serve.store import PlanStore

from tests.serve.conftest import make_request, wire_instance


class GatedBroker:
    """A broker whose solves block until ``release()``."""

    def __init__(self, config: BrokerConfig, tracer=None):
        self.broker = RequestBroker(
            cache=PlanCache(),
            config=config,
            tracer=tracer if tracer is not None else Tracer(),
        )
        self.gate = threading.Event()
        self.solve_started = threading.Event()
        inner = self.broker._solve

        def gated(request):
            self.solve_started.set()
            if not self.gate.wait(timeout=30):
                raise RuntimeError("gate never released")
            return inner(request)

        self.broker._solve = gated

    def release(self):
        self.gate.set()


class TestCoalescing:
    def test_eight_duplicates_coalesce_to_one_solve(self):
        async def scenario():
            gated = GatedBroker(BrokerConfig(concurrency=1))
            broker = gated.broker
            await broker.start()
            inst = wire_instance(seed=1)
            request = make_request(inst)
            first = asyncio.ensure_future(broker.submit(request))
            # Let the first submit register its in-flight future; every
            # later duplicate must attach to it.
            await asyncio.sleep(0)
            rest = [
                asyncio.ensure_future(broker.submit(request)) for _ in range(7)
            ]
            await asyncio.sleep(0)
            gated.release()
            responses = await asyncio.gather(first, *rest)
            await broker.drain()
            return responses, broker

        responses, broker = asyncio.run(scenario())
        coalesced = [r["coalesced"] for r in responses]
        assert coalesced.count(True) == 7
        assert coalesced.count(False) == 1
        # All eight answered with the identical canonical plan.
        plans = {str(r["plan"]) for r in responses}
        assert len(plans) == 1
        counters = broker.tracer.metrics.counters
        assert counters[names.SERVE_REQUESTS_COALESCED] == 7
        assert counters[names.SERVE_REQUESTS_ADMITTED] == 1

    def test_distinct_fingerprints_do_not_coalesce(self):
        async def scenario():
            gated = GatedBroker(BrokerConfig(concurrency=2))
            broker = gated.broker
            await broker.start()
            r1 = make_request(wire_instance(seed=1))
            r2 = make_request(wire_instance(seed=2))
            assert r1.fingerprint != r2.fingerprint
            t1 = asyncio.ensure_future(broker.submit(r1))
            t2 = asyncio.ensure_future(broker.submit(r2))
            await asyncio.sleep(0)
            gated.release()
            responses = await asyncio.gather(t1, t2)
            await broker.drain()
            return responses

        responses = asyncio.run(scenario())
        assert [r["coalesced"] for r in responses] == [False, False]

    def test_post_completion_duplicate_is_a_fresh_solve(self):
        async def scenario():
            broker = RequestBroker(config=BrokerConfig(concurrency=1))
            await broker.start()
            request = make_request(wire_instance(seed=3))
            first = await broker.submit(request)
            second = await broker.submit(request)
            await broker.drain()
            return first, second, broker

        first, second, broker = asyncio.run(scenario())
        assert first["coalesced"] is False
        assert second["coalesced"] is False
        assert first["plan"] == second["plan"]
        # The second solve was answered from the plan cache.
        assert broker.cache.stats.plan_hits >= 1


class TestAdmission:
    def test_overload_rejects_with_typed_error(self):
        async def scenario():
            gated = GatedBroker(BrokerConfig(max_queue=1, concurrency=1))
            broker = gated.broker
            await broker.start()
            running = asyncio.ensure_future(
                broker.submit(make_request(wire_instance(seed=1)))
            )
            # Wait until the consumer picked the first flight up...
            await asyncio.sleep(0)
            while not gated.solve_started.is_set():
                await asyncio.sleep(0.005)
            # ...then fill the queue and overflow it.
            queued = asyncio.ensure_future(
                broker.submit(make_request(wire_instance(seed=2)))
            )
            await asyncio.sleep(0.01)
            with pytest.raises(OverloadedError) as err:
                await broker.submit(make_request(wire_instance(seed=3)))
            assert err.value.code == "overloaded"
            assert err.value.http_status == 503
            gated.release()
            await asyncio.gather(running, queued)
            await broker.drain()
            return broker

        broker = asyncio.run(scenario())
        assert broker.tracer.metrics.counters[names.SERVE_REQUESTS_REJECTED] == 1

    def test_rate_limit_per_client(self):
        async def scenario():
            broker = RequestBroker(
                config=BrokerConfig(rate_limit=0.001, rate_burst=1)
            )
            await broker.start()
            request = make_request(wire_instance(seed=1))
            await broker.submit(request, client="alice")
            with pytest.raises(RateLimitedError):
                await broker.submit(request, client="alice")
            # An unrelated client has its own bucket.
            response = await broker.submit(request, client="bob")
            await broker.drain()
            return response

        assert asyncio.run(scenario())["kind"] == "plan"

    def test_draining_rejects_new_requests(self):
        async def scenario():
            broker = RequestBroker(config=BrokerConfig())
            await broker.start()
            await broker.drain()
            with pytest.raises(DrainingError) as err:
                await broker.submit(make_request(wire_instance()))
            return err.value

        error = asyncio.run(scenario())
        assert error.code == "draining"
        assert error.http_status == 503


class TestDeadlines:
    def test_deadline_fires_but_shared_solve_survives(self):
        async def scenario():
            gated = GatedBroker(BrokerConfig(concurrency=1))
            broker = gated.broker
            await broker.start()
            inst = wire_instance(seed=4)
            impatient = make_request(inst, timeout=0.05)
            patient = make_request(inst)
            assert impatient.fingerprint == patient.fingerprint
            first = asyncio.ensure_future(broker.submit(impatient))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(broker.submit(patient))
            with pytest.raises(DeadlineError) as err:
                await first
            assert err.value.http_status == 504
            # The shared solve was shielded from the timed-out waiter.
            gated.release()
            response = await second
            await broker.drain()
            return response

        response = asyncio.run(scenario())
        assert response["coalesced"] is True

    def test_default_timeout_from_config(self):
        async def scenario():
            gated = GatedBroker(
                BrokerConfig(concurrency=1, default_timeout=0.05)
            )
            broker = gated.broker
            await broker.start()
            with pytest.raises(DeadlineError):
                await broker.submit(make_request(wire_instance(seed=5)))
            gated.release()
            await broker.drain()

        asyncio.run(scenario())


class TestOneFlightPerConsumer:
    def test_flight_expired_in_queue_is_never_solved(self):
        """A consumer takes one flight at a time, so a flight whose
        deadline passes while an earlier solve runs is answered
        without a solve of its own."""

        async def scenario():
            broker = RequestBroker(
                cache=PlanCache(),
                config=BrokerConfig(concurrency=1),
                tracer=Tracer(),
            )
            inner = broker._solve
            gates = {}
            solved = []

            def gated(request):
                solved.append(request.fingerprint)
                gate = gates.get(request.fingerprint)
                if gate is not None and not gate.wait(timeout=30):
                    raise RuntimeError("gate never released")
                return inner(request)

            broker._solve = gated
            await broker.start()
            a = make_request(wire_instance(seed=11))
            b = make_request(wire_instance(seed=12))
            c = make_request(wire_instance(seed=13), timeout=0.2)
            gates[a.fingerprint] = threading.Event()
            gates[b.fingerprint] = threading.Event()
            first = asyncio.ensure_future(broker.submit(a))
            while not solved:
                await asyncio.sleep(0.005)
            second = asyncio.ensure_future(broker.submit(b))
            third = asyncio.ensure_future(broker.submit(c))
            await asyncio.sleep(0.01)
            gates[a.fingerprint].set()
            await first
            with pytest.raises(DeadlineError):
                await third
            gates[b.fingerprint].set()
            await second
            await broker.drain()
            return solved, broker, c.fingerprint

        solved, broker, expired = asyncio.run(scenario())
        assert expired not in solved
        assert len(solved) == 2
        assert broker.tracer.metrics.counters[names.SERVE_REQUESTS_COMPLETED] == 2

    def test_error_of_a_flight_nobody_awaits_is_retrieved(self, caplog):
        async def expect_deadline(submission):
            try:
                await submission
            except DeadlineError:
                return True
            return False

        async def scenario():
            gated = GatedBroker(BrokerConfig(concurrency=1))
            broker = gated.broker
            await broker.start()
            running = asyncio.ensure_future(
                broker.submit(make_request(wire_instance(seed=14)))
            )
            while not gated.solve_started.is_set():
                await asyncio.sleep(0.005)
            expired = await expect_deadline(
                broker.submit(make_request(wire_instance(seed=15), timeout=0.05))
            )
            gated.release()
            await running
            # Let the consumer answer the expired flight before drain,
            # which would otherwise read its error itself.
            await broker._queue.join()
            await broker.drain()
            # Collect the expired flight's future while the loop is open:
            # an unretrieved error would be logged now.
            gc.collect()
            return expired

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert asyncio.run(scenario())
        assert not [
            r for r in caplog.records if "never retrieved" in r.getMessage()
        ]


class TestFailures:
    def test_solver_exception_surfaces_as_internal(self):
        async def scenario():
            broker = RequestBroker(config=BrokerConfig(), tracer=Tracer())

            def boom(request):
                raise RuntimeError("solver exploded")

            broker._solve = boom
            await broker.start()
            with pytest.raises(ProtocolError) as err:
                await broker.submit(make_request(wire_instance()))
            await broker.drain()
            return err.value, broker

        error, broker = asyncio.run(scenario())
        assert error.code == "internal"
        assert "solver exploded" in error.message
        assert broker.tracer.metrics.counters[names.SERVE_REQUESTS_FAILED] == 1

    def test_stored_plan_that_does_not_fit_is_typed(self, tmp_path):
        """A stored record naming a real pair slot twice answers
        ``stored-plan-mismatch``, not ``internal``."""
        instance = wire_instance()
        with PlanStore(str(tmp_path / "plans.db")) as store:
            plan(instance, cache=PlanCache(store=store))
            key, stored = max(store.items(), key=lambda item: len(item[1].rounds))
            rounds = stored.rounds
            # The last round's first token repeats round 0's first.
            twice = rounds[:-1] + ((rounds[0][0],) + rounds[-1][1:],)
            store.save(key, CachedPlan(stored.method, twice))

            async def scenario():
                broker = RequestBroker(
                    cache=PlanCache(store=store), config=BrokerConfig(), tracer=Tracer()
                )
                await broker.start()
                with pytest.raises(ProtocolError) as err:
                    await broker.submit(make_request(instance))
                await broker.drain()
                return err.value, broker

            error, broker = asyncio.run(scenario())
        assert (error.code, error.http_status) == ("stored-plan-mismatch", 500)
        assert "does not fit it" in error.message
        assert "scheduled twice" in error.message
        assert broker.tracer.metrics.counters[names.SERVE_REQUESTS_FAILED] == 1


class TestDrain:
    def test_drain_completes_admitted_work(self):
        async def scenario():
            gated = GatedBroker(BrokerConfig(concurrency=1))
            broker = gated.broker
            await broker.start()
            pending = asyncio.ensure_future(
                broker.submit(make_request(wire_instance(seed=6)))
            )
            await asyncio.sleep(0)
            drainer = asyncio.ensure_future(broker.drain())
            await asyncio.sleep(0.01)
            assert broker.draining
            assert not drainer.done()  # blocked on the admitted solve
            gated.release()
            response = await pending
            await drainer
            return response

        response = asyncio.run(scenario())
        assert response["coalesced"] is False
        assert response["num_rounds"] >= 1

    def test_drain_keeps_event_loop_responsive_while_joining_workers(self):
        """Regression: flow-async-blocking in RequestBroker.drain.

        ``shutdown(wait=True)`` used to run directly on the event loop;
        with a worker thread still busy, the whole loop froze until the
        thread finished — health checks included.  The fix offloads the
        join to an executor, so a heartbeat coroutine must keep ticking
        while drain waits for a deliberately slow worker.
        """

        async def scenario():
            broker = RequestBroker(config=BrokerConfig(concurrency=1), tracer=Tracer())
            await broker.start()
            gate = threading.Event()
            # A busy worker the drain's shutdown(wait=True) must join.
            broker._threads.submit(gate.wait, 30)

            ticks = 0

            async def heartbeat():
                nonlocal ticks
                while True:
                    ticks += 1
                    await asyncio.sleep(0.005)

            beat = asyncio.ensure_future(heartbeat())
            drainer = asyncio.ensure_future(broker.drain())
            await asyncio.sleep(0.08)
            ticks_while_draining = ticks
            assert not drainer.done()  # still joining the busy worker
            gate.set()
            await drainer
            beat.cancel()
            return ticks_while_draining

        ticks_while_draining = asyncio.run(scenario())
        # A blocked loop yields ~0 ticks; a responsive one yields ~15.
        assert ticks_while_draining >= 3


class TestFlightRelease:
    def test_idle_consumers_hold_no_answered_request(self):
        """An answered flight's request (and its instance) is freed
        while the consumers wait for the next flight, not at drain."""

        async def scenario():
            broker = RequestBroker(
                cache=PlanCache(), config=BrokerConfig(concurrency=2), tracer=Tracer()
            )
            await broker.start()
            request = make_request(wire_instance(seed=8))
            alive = weakref.ref(request)
            response = await broker.submit(request)
            del request
            # Let every consumer get back to waiting on the queue.
            for _ in range(5):
                await asyncio.sleep(0)
            gc.collect()
            released = alive() is None
            await broker.drain()
            return response, released

        response, released = asyncio.run(scenario())
        assert response["num_rounds"] >= 1
        assert released


class TestBrokerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"concurrency": 0},
            {"rate_limit": -1.0},
            {"rate_burst": 0},
            {"default_timeout": 0.0},
            {"default_timeout": -1.0},
            {"default_timeout": float("nan")},
            {"default_timeout": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BrokerConfig(**kwargs)
