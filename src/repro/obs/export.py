"""Exporters: where trace records land.

* :class:`JsonlExporter` — one sorted-key JSON object per line, the
  archival format ``repro-migrate stats`` consumes.  The first line of
  a fresh file is a ``meta`` record carrying the schema version.
* :class:`InMemoryExporter` — collects records in a list; the test
  and ad-hoc-analysis exporter.
* :func:`write_prometheus` / :func:`repro.obs.metrics.render_prometheus`
  — the Prometheus text exposition of a metrics registry.

Sorted keys everywhere make traces byte-comparable across processes
and ``PYTHONHASHSEED`` values; only timing floats differ between two
traces of the same deterministic run.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping

from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.trace import TRACE_SCHEMA_VERSION, Exporter


def meta_record() -> Dict[str, Any]:
    """The header record opening every fresh JSONL trace."""
    return {
        "kind": "meta",
        "schema": TRACE_SCHEMA_VERSION,
        "source": "repro.obs",
    }


def _seal_for_append(path: str) -> int:
    """End the trace at ``path`` on a newline; return its largest span id.

    A killed writer can leave a last line with no newline: a whole
    record whose newline never landed, or a fragment cut mid-record.
    Appending after either would glue the next record onto it, so a
    whole record gets its newline and a fragment is cut off.
    """
    with open(path, "rb+") as handle:
        data = handle.read()
        lines = data.split(b"\n")
        tail = lines.pop()  # b"" when the file already ends on a newline
        if tail:
            try:
                json.loads(tail)
            except ValueError:
                handle.truncate(len(data) - len(tail))
            else:
                handle.write(b"\n")
                lines.append(tail)
    top = 0
    for line in lines:
        try:
            record: Any = json.loads(line)
        except ValueError:
            continue  # left for ``validate_trace`` to report
        if isinstance(record, dict) and record.get("kind") == "span":
            span_id = record.get("span")
            if isinstance(span_id, int):
                top = max(top, span_id)
    return top


class JsonlExporter(Exporter):
    """Append-structured JSONL trace file, keys sorted.

    Args:
        path: output file.
        append: continue an existing trace (e.g. a resumed run) —
            seals a last line a killed writer left unterminated (see
            :func:`_seal_for_append`), skips the ``meta`` header when
            the file still has bytes, and numbers the new spans (ids
            and parent links) above the largest span id already in the
            file, so the two runs' span ids never collide.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = str(path)
        resuming = append and os.path.exists(self.path)
        self._span_offset = _seal_for_append(self.path) if resuming else 0
        fresh = not (resuming and os.path.getsize(self.path))
        self._handle = open(self.path, "a" if append else "w")
        if fresh:
            self.export(meta_record())

    def export(self, record: Mapping[str, Any]) -> None:
        out = dict(record)
        if self._span_offset and out.get("kind") == "span":
            out["span"] += self._span_offset
            if out.get("parent") is not None:
                out["parent"] += self._span_offset
        self._handle.write(json.dumps(out, sort_keys=True, default=str))
        self._handle.write("\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InMemoryExporter(Exporter):
    """Collects records in order; for tests and in-process analysis."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.closed = False

    def export(self, record: Mapping[str, Any]) -> None:
        self.records.append(dict(record))

    def close(self) -> None:
        self.closed = True

    def spans(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "span"]


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into a list of records.

    Blank lines are skipped.  Record fields are not checked here; that
    is :func:`repro.obs.schema.validate_trace`'s job.

    Raises:
        OSError: when the file cannot be read.
        ValueError: naming the line when a line is not JSON or not a
            JSON object (a ``UnicodeDecodeError``, also a
            ``ValueError``, when the file is not UTF-8 text).
    """
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: not JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"line {lineno}: a trace record is a JSON object, "
                    f"got {type(record).__name__}"
                )
            records.append(record)
    return records


def write_prometheus(
    registry: MetricsRegistry, path: str, prefix: str = "repro_"
) -> None:
    """Write the registry's Prometheus text exposition to ``path``."""
    with open(path, "w") as handle:
        handle.write(render_prometheus(registry, prefix=prefix))
