"""Server lifecycle: asyncio HTTP front-end, health, metrics, drain.

:class:`PlanningServer` binds the broker to a socket with a minimal
stdlib HTTP/1.1 layer (one request per connection, ``Connection:
close`` — a planning RPC is not a browsing session):

=========================  ===========================================
``POST /v1/plan``          plan request → canonical plan response
``POST /v1/certify``       plan + composed lower-bound certificate
``GET /healthz``           ``{"status": "ok" | "draining"}``
``GET /metrics``           Prometheus text exposition of the server's
                           :mod:`repro.obs` metrics registry
=========================  ===========================================

**Graceful drain.**  ``SIGTERM``/``SIGINT`` (or :meth:`drain`) flips
the server into draining mode: ``/healthz`` reports ``draining`` so
load balancers stop routing, new plan requests answer a typed
``draining`` error, every already-admitted solve runs to completion,
the plan store is flushed and closed, and :meth:`serve_forever`
returns.  Nothing admitted is ever abandoned.

The server owns its wiring: a (possibly store-backed, pre-warmed)
:class:`~repro.pipeline.cache.PlanCache`, a
:class:`~repro.serve.broker.RequestBroker`, and a
:class:`~repro.obs.Tracer` whose registry feeds ``/metrics`` (and,
with ``trace_out``, a JSONL trace that ``repro-migrate stats`` can
aggregate — per-worker files merge when passed to ``stats`` together,
as positional paths).
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.export import JsonlExporter
from repro.obs.metrics import render_prometheus
from repro.obs.trace import Tracer
from repro.pipeline.cache import PlanCache
from repro.pipeline.registry import solver_names
from repro.serve.broker import BrokerConfig, RequestBroker
from repro.serve.protocol import (
    ProtocolError,
    canonical_json,
    health_response,
    parse_plan_request,
)
from repro.serve.store import PlanStore

#: Largest accepted request body (a million-move instance fits).
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro-migrate serve`` can tune.

    Attributes:
        host/port: bind address; port 0 picks an ephemeral port
            (see :attr:`PlanningServer.port` after :meth:`start`).
        store_path: optional persistent plan store, one SQLite file
            (:class:`repro.serve.store.PlanStore`); the cache is
            warm-started from it and writes through to it.
        cache_entries: in-memory plan-cache bound.
        broker: admission/coalescing/deadline knobs.
        trace_out: optional JSONL trace path for this server's spans
            and metrics (flushed at drain).
        install_signal_handlers: wire SIGTERM/SIGINT to :meth:`drain`
            (disable when embedding in a host that owns signals).
    """

    host: str = "127.0.0.1"
    port: int = 0
    store_path: Optional[str] = None
    cache_entries: int = 4096
    broker: BrokerConfig = field(default_factory=BrokerConfig)
    trace_out: Optional[str] = None
    install_signal_handlers: bool = True


class PlanningServer:
    """The long-lived planning service.  See module docstring."""

    def __init__(
        self, config: Optional[ServerConfig] = None, tracer: Optional[Tracer] = None
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        #: the ``trace_out`` file :meth:`start` opens once the store has
        #: (a given ``tracer`` takes precedence).
        self._trace_file = self.config.trace_out if tracer is None else None
        self.store: Optional[PlanStore] = None
        self.cache: Optional[PlanCache] = None
        self.broker: Optional[RequestBroker] = None
        self.warmed_entries = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional["asyncio.Event"] = None
        #: the signal-handler drain task; retained so the event loop's
        #: weak reference is not the only thing keeping it alive.
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._draining = False
        self._methods: Tuple[str, ...] = ("auto", *solver_names())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Open the store, warm the cache, start broker and socket.

        Store open and cache warm-up read the store's SQLite file, so
        both run on the default executor — the event loop keeps serving
        health checks while a large store loads.  A store that cannot
        be opened or warmed raises
        :class:`~repro.serve.store.PlanStoreError` before any socket is
        bound or trace file written.
        """
        if self._server is not None:
            return
        loop = asyncio.get_running_loop()
        if self.config.store_path is not None:
            self.store = await loop.run_in_executor(
                None, PlanStore, self.config.store_path
            )
        self.cache = PlanCache(
            max_entries=self.config.cache_entries, store=self.store
        )
        self.warmed_entries = await loop.run_in_executor(None, self.cache.warm)
        if self._trace_file:
            exporter = await loop.run_in_executor(
                None, JsonlExporter, self._trace_file
            )
            self.tracer = Tracer(exporter)
        self.broker = RequestBroker(
            cache=self.cache, config=self.config.broker, tracer=self.tracer
        )
        await self.broker.start()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        if self.config.install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # platform without loop signal support

    def request_drain(self) -> "asyncio.Task[None]":
        """Schedule a drain and retain the task (signal-handler entry).

        ``loop.create_task`` alone is not enough: the loop holds only a
        weak reference to a running task, so a fire-and-forget drain can
        be garbage-collected mid-shutdown.  The handle lives on
        ``self._drain_task``; repeated signals reuse the running drain.
        """
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())
        return self._drain_task

    async def drain(self) -> None:
        """Stop admission, finish in-flight solves, flush, shut down."""
        if self._draining:
            return
        self._draining = True
        if self.broker is not None:
            await self.broker.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Store flush and trace-export close are file I/O; keep the loop
        # responsive (healthz answers "draining") while they run.
        loop = asyncio.get_running_loop()
        if self.store is not None:
            await loop.run_in_executor(None, self.store.close)
        await loop.run_in_executor(None, self.tracer.close)
        if self._done is not None:
            self._done.set()

    async def serve_forever(self) -> None:
        """Block until a drain completes."""
        if self._done is None:
            raise RuntimeError("start() the server first")
        await self._done.wait()

    async def run(self) -> None:
        """``start()`` + ``serve_forever()`` in one call."""
        await self.start()
        await self.serve_forever()

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                await self._respond_error(
                    writer, ProtocolError("bad-request", "malformed request line")
                )
                return
            method, target = parts[0].upper(), parts[1]
            headers = await self._read_headers(reader)
            body = b""
            length = headers.get("content-length")
            if length is not None:
                try:
                    size = int(length)
                except ValueError:
                    await self._respond_error(
                        writer,
                        ProtocolError("bad-request", "bad Content-Length"),
                    )
                    return
                if size > MAX_BODY_BYTES:
                    await self._respond_error(
                        writer,
                        ProtocolError(
                            "bad-request",
                            f"body of {size} bytes exceeds {MAX_BODY_BYTES}",
                            http_status=413,
                        ),
                    )
                    return
                body = await reader.readexactly(size)
            await self._route(writer, method, target, headers, body)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            text = line.decode("latin-1").rstrip("\r\n")
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Mapping[str, str],
        body: bytes,
    ) -> None:
        path = target.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            payload = health_response("draining" if self._draining else "ok")
            await self._respond_json(writer, 200, payload)
        elif path == "/metrics" and method == "GET":
            text = render_prometheus(self.tracer.metrics)
            await self._respond_raw(
                writer, 200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        elif path in ("/v1/plan", "/v1/certify"):
            if method != "POST":
                await self._respond_error(
                    writer,
                    ProtocolError(
                        "bad-request", f"{path} requires POST", http_status=405
                    ),
                )
                return
            await self._handle_plan(
                writer, headers, body, certify=path.endswith("certify")
            )
        else:
            await self._respond_error(
                writer,
                ProtocolError(
                    "not-found", f"no route for {method} {path}", http_status=404
                ),
            )

    async def _handle_plan(
        self,
        writer: asyncio.StreamWriter,
        headers: Mapping[str, str],
        body: bytes,
        certify: bool,
    ) -> None:
        assert self.broker is not None
        client = headers.get("x-repro-client", "")
        try:
            request = parse_plan_request(
                body, known_methods=self._methods, certify=certify
            )
            response = await self.broker.submit(request, client=client)
        except ProtocolError as exc:
            await self._respond_error(writer, exc)
            return
        await self._respond_json(writer, 200, response)

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Mapping[str, Any]
    ) -> None:
        await self._respond_raw(writer, status, canonical_json(payload))

    async def _respond_error(
        self, writer: asyncio.StreamWriter, error: ProtocolError
    ) -> None:
        await self._respond_json(writer, error.http_status, error.to_payload())

    @staticmethod
    async def _respond_raw(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def serve(config: Optional[ServerConfig] = None) -> None:
    """Run a planning server until it drains (the CLI entry point)."""
    server = PlanningServer(config)
    await server.start()
    print(
        f"repro-serve listening on {server.config.host}:{server.port} "
        f"(store={server.config.store_path or 'none'}, "
        f"warmed={server.warmed_entries} plans); SIGTERM drains"
    )
    await server.serve_forever()
