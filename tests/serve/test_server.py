"""End-to-end tests for the planning server (repro.serve.server).

Each test boots a real server on an ephemeral port via
:class:`InProcessServer` and talks to it with the stdlib client.
"""

import asyncio
import http.client
import threading

import pytest

from repro.obs import names
from repro.pipeline.planner import plan
from repro.serve import (
    BrokerConfig,
    InProcessServer,
    PlanServiceError,
    ServerConfig,
    canonical_json,
    plan_request_payload,
    schedule_payload,
    start_in_process,
)

from tests.serve.conftest import wire_instance


def raw_request(host, port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestServedPlans:
    def test_served_plan_is_byte_identical_to_direct(self):
        inst = wire_instance(num_nodes=8, num_edges=24, seed=11)
        with start_in_process(ServerConfig()) as handle:
            outcome = handle.client().plan(inst, method="auto", seed=0)
        direct = plan(inst, method="auto", seed=0)
        direct_bytes = canonical_json(schedule_payload(inst, direct.schedule))
        assert outcome.plan_bytes == direct_bytes
        schedule = outcome.schedule(inst)  # validates against the instance
        assert schedule.num_rounds == direct.schedule.num_rounds

    def test_certify_endpoint_carries_verified_bound(self):
        inst = wire_instance(num_nodes=6, num_edges=12, seed=7)
        with start_in_process(ServerConfig()) as handle:
            outcome = handle.client().plan(inst, certify=True)
        direct = plan(inst, certify=True)
        assert outcome.lower_bound == direct.lower_bound
        assert outcome.certified_optimal == direct.certified_optimal
        assert outcome.num_rounds >= outcome.lower_bound

    def test_unknown_method_is_a_typed_error(self):
        with start_in_process(ServerConfig()) as handle:
            with pytest.raises(PlanServiceError) as err:
                handle.client().plan(wire_instance(), method="warp")
        assert err.value.code == "unknown-method"
        assert err.value.http_status == 400


class TestHttpSurface:
    def test_healthz_reports_ok(self):
        with start_in_process(ServerConfig()) as handle:
            payload = handle.client().health()
        assert payload["kind"] == "health"
        assert payload["status"] == "ok"

    def test_metrics_exposition_after_a_plan(self):
        inst = wire_instance(seed=3)
        with start_in_process(ServerConfig()) as handle:
            handle.client().plan(inst)
            text = handle.client().metrics_text()
        assert f"{names.SERVE_REQUESTS_ADMITTED} 1" in text
        assert names.SERVE_REQUESTS_COMPLETED in text

    def test_unknown_route_is_404(self):
        with start_in_process(ServerConfig()) as handle:
            status, body = raw_request(handle.host, handle.port, "GET", "/nope")
        assert status == 404
        assert b'"not-found"' in body

    def test_plan_requires_post(self):
        with start_in_process(ServerConfig()) as handle:
            status, _ = raw_request(handle.host, handle.port, "GET", "/v1/plan")
        assert status == 405

    def test_malformed_body_is_bad_request(self):
        with start_in_process(ServerConfig()) as handle:
            status, body = raw_request(
                handle.host, handle.port, "POST", "/v1/plan", body=b"{oops"
            )
        assert status == 400
        assert b'"bad-request"' in body

    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity"])
    def test_non_finite_timeout_is_bad_request(self, literal):
        payload = plan_request_payload(wire_instance())
        payload["timeout"] = 1.0
        body = canonical_json(payload).replace(b'"timeout":1.0', b'"timeout":' + literal)
        with start_in_process(ServerConfig()) as handle:
            status, reply = raw_request(
                handle.host, handle.port, "POST", "/v1/plan", body=body
            )
        assert status == 400
        assert b'"bad-request"' in reply

    def test_oversized_body_rejected_without_reading(self):
        with start_in_process(ServerConfig()) as handle:
            status, body = raw_request(
                handle.host, handle.port, "POST", "/v1/plan",
                headers={"Content-Length": str(1 << 30)},
            )
        assert status == 413


class TestStoreBackedServer:
    def test_warm_start_across_server_generations(self, tmp_path):
        store_path = str(tmp_path / "plans.sqlite")
        inst = wire_instance(num_nodes=8, num_edges=20, seed=5)
        with start_in_process(ServerConfig(store_path=store_path)) as handle:
            first = handle.client().plan(inst)
            assert handle.server.warmed_entries == 0
        # A fresh server process-worth of state: new cache, same store.
        with start_in_process(ServerConfig(store_path=store_path)) as handle:
            assert handle.server.warmed_entries >= 1
            second = handle.client().plan(inst)
        assert second.plan_bytes == first.plan_bytes

    def test_jsonl_store_flushed_at_drain(self, tmp_path):
        store_dir = tmp_path / "plans"
        with start_in_process(ServerConfig(store_path=str(store_dir))) as handle:
            handle.client().plan(wire_instance(seed=9))
        log = store_dir / "plans.jsonl"
        assert log.exists()
        assert len(log.read_text().splitlines()) >= 2  # header + >=1 plan


class TestGracefulDrain:
    def test_drain_under_load_finishes_admitted_and_rejects_new(self):
        handle = InProcessServer(ServerConfig(broker=BrokerConfig(concurrency=1)))
        handle.start()
        broker = handle.server.broker
        gate = threading.Event()
        inner = broker._solve

        def gated(request):
            if not gate.wait(timeout=30):
                raise RuntimeError("gate never released")
            return inner(request)

        broker._solve = gated

        results = {}

        def admitted_call():
            results["admitted"] = handle.client().plan(wire_instance(seed=1))

        worker = threading.Thread(target=admitted_call)
        worker.start()
        # Wait until the request is actually in flight.
        for _ in range(500):
            if broker._inflight:
                break
            threading.Event().wait(0.01)
        assert broker._inflight

        # Trigger the SIGTERM path without joining the loop thread.
        drain_future = asyncio.run_coroutine_threadsafe(
            handle.server.drain(), handle._loop
        )
        for _ in range(500):
            if handle.server.draining:
                break
            threading.Event().wait(0.01)

        # While draining: health says so, new work is refused typed.
        assert handle.client().health()["status"] == "draining"
        with pytest.raises(PlanServiceError) as err:
            handle.client().plan(wire_instance(seed=2))
        assert err.value.code == "draining"
        assert err.value.http_status == 503

        # Release the gate: the admitted request completes, drain ends.
        gate.set()
        worker.join(timeout=30)
        drain_future.result(timeout=30)
        handle.drain()
        assert results["admitted"].num_rounds >= 1

    def test_socket_released_after_drain(self):
        handle = start_in_process(ServerConfig())
        host, port = handle.host, handle.port
        handle.drain()
        with pytest.raises(OSError):
            raw_request(host, port, "GET", "/healthz")

    def test_request_drain_retains_the_task_and_coalesces_repeats(self):
        """Regression: flow-async-orphan-task in PlanningServer.start.

        The SIGTERM handler used to ``loop.create_task(self.drain())``
        and drop the handle; the loop only weakly references running
        tasks, so the drain could be garbage-collected mid-shutdown.
        ``request_drain`` must retain the task on the server and hand
        the same task back for repeated signals.
        """
        from repro.serve.server import PlanningServer

        async def scenario():
            server = PlanningServer(ServerConfig(install_signal_handlers=False))
            await server.start()
            first = server.request_drain()
            second = server.request_drain()  # SIGTERM arriving twice
            assert second is first
            assert server._drain_task is first
            await first
            # After the drain completes, a new request starts fresh
            # (and is a no-op because the server is already drained).
            third = server.request_drain()
            assert third is not first
            await third
            return server

        server = asyncio.run(scenario())
        assert server.draining
