"""Span-based tracing: :class:`Tracer`, :class:`Span`, and the no-op.

A span is one named, timed region of work.  Spans nest: the tracer
keeps a stack of active spans, so the span opened inside another
records it as its parent, and a finished trace always forms a forest
(proved by a hypothesis property in the test suite).  Usage::

    tracer = Tracer(exporter=JsonlExporter("trace.jsonl"))
    with tracer.span("pipeline.plan", method="auto") as sp:
        ...
        sp.set("rounds", schedule.num_rounds)
    tracer.close()          # flush metric records, close the exporter

or as a decorator::

    @tracer.trace("solve")
    def solve(...): ...

**Determinism contract.**  Tracing is observation only: nothing in
this module feeds back into planning or execution, so a run with the
default :data:`NULL_TRACER` is bit-for-bit identical to an
uninstrumented build (the cross-``PYTHONHASHSEED`` harness proves
this).  Clocks are injectable and default to monotonic/CPU readings —
elapsed measurements, never the wall-clock date, which keeps the
determinism linter's ``wall-clock`` rule green.

Span ids are assigned sequentially per tracer, so two traces of the
same deterministic run differ only in their timing floats.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Type, TypeVar

from repro.obs.metrics import MetricsRegistry

F = TypeVar("F", bound=Callable[..., Any])

#: An injectable zero-argument clock returning seconds.
Clock = Callable[[], float]

#: Trace wire-format version (see :mod:`repro.obs.schema`).
TRACE_SCHEMA_VERSION = 1


class Exporter:
    """Where finished spans and metric records go.

    Concrete exporters live in :mod:`repro.obs.export`; anything with
    this duck type works.
    """

    def export(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - optional hook
        pass


@dataclass
class Span:
    """One finished (or in-flight) traced region."""

    name: str
    span_id: int
    parent_id: Optional[int]
    t0: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set(self, key: Optional[str] = None, value: Any = None, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the span.

        Accepts one positional ``key, value`` pair, keyword attributes,
        or both: ``span.set("rounds", 3)`` and ``span.set(rounds=3)``
        are equivalent.
        """
        if key is not None:
            self.attrs[key] = value
        self.attrs.update(attrs)

    def to_record(self) -> Dict[str, Any]:
        """The span's JSON-ready wire form."""
        return {
            "kind": "span",
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "t0": self.t0,
            "wall": self.wall,
            "cpu": self.cpu,
            "attrs": dict(self.attrs),
        }


class _ActiveSpan:
    """Context manager binding a :class:`Span` to its tracer's stack."""

    __slots__ = ("_tracer", "span", "_cpu_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._cpu_start = 0.0

    def set(self, key: Optional[str] = None, value: Any = None, **attrs: Any) -> None:
        self.span.set(key, value, **attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self.span)
        self.span.t0 = self._tracer._now()
        self._cpu_start = self._tracer._cpu_now()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.span.wall = self._tracer._now() - self.span.t0
        self.span.cpu = self._tracer._cpu_now() - self._cpu_start
        if exc_type is not None:
            self.span.set("error", exc_type.__name__)
        self._tracer._pop(self.span)


class Tracer:
    """Creates spans, owns a metrics registry, feeds an exporter.

    Args:
        exporter: receives one record per finished span, plus one
            record per metric instrument at :meth:`close`.  ``None``
            keeps spans purely in-memory (``finished`` spans are still
            countable via metrics the caller records).
        clock: monotonic seconds source (injectable for tests).
        cpu_clock: CPU seconds source (injectable for tests).
    """

    #: Whether spans and metrics are actually recorded.
    enabled: bool = True

    def __init__(
        self,
        exporter: Optional[Exporter] = None,
        clock: Clock = time.perf_counter,
        cpu_clock: Clock = time.process_time,
    ) -> None:
        self._exporter = exporter
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._epoch = clock()
        self._next_id = 1
        self._stack: List[Span] = []
        self._closed = False
        self.metrics = MetricsRegistry()

    # -- clock plumbing --------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._epoch

    def _cpu_now(self) -> float:
        return self._cpu_clock()

    # -- span lifecycle ---------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            attrs=dict(attrs),
        )
        self._next_id += 1
        return _ActiveSpan(self, span)

    def _push(self, span: Span) -> None:
        # Late parenting: span() captured the parent at creation, but a
        # with-statement may enter spans created earlier; re-resolve so
        # nesting always reflects entry order.
        if self._stack and span.parent_id != self._stack[-1].span_id:
            span.parent_id = self._stack[-1].span_id
        elif not self._stack:
            span.parent_id = None
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # mis-nested exit: drop through to it
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        if self._exporter is not None:
            self._exporter.export(span.to_record())

    def trace(self, name: Optional[str] = None) -> Callable[[F], F]:
        """Decorator form: wrap every call of ``fn`` in a span."""

        def decorate(fn: F) -> F:
            span_name = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper  # type: ignore[return-value]

        return decorate

    # -- metrics convenience ----------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Flush metric records to the exporter and close it.

        Idempotent; safe to call with spans still open (they simply
        export when they exit, after which the exporter may be gone —
        close last).
        """
        if self._closed:
            return
        self._closed = True
        if self._exporter is not None:
            for record in self.metrics.to_records():
                self._exporter.export(record)
            self._exporter.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class _NullSpan:
    """The shared do-nothing active span."""

    __slots__ = ()

    def set(self, key: Optional[str] = None, value: Any = None, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The default tracer: every operation is a no-op.

    A single shared span object is handed out, no clock is read, no
    metric is allocated — instrumented code paths cost a method call
    and nothing else when tracing is off.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(exporter=None, clock=lambda: 0.0, cpu_clock=lambda: 0.0)

    def span(self, name: str, **attrs: Any) -> Any:
        return _NULL_SPAN

    def trace(self, name: Optional[str] = None) -> Callable[[F], F]:
        def decorate(fn: F) -> F:
            return fn

        return decorate

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def close(self) -> None:
        pass


#: Process-wide no-op tracer; the default everywhere a ``tracer=``
#: parameter is accepted.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[Tracer]) -> Tracer:
    """``tracer`` itself, or the shared :data:`NULL_TRACER` for ``None``."""
    return tracer if tracer is not None else NULL_TRACER
