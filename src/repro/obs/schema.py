"""Trace schema: record shapes and the validator.

The JSONL trace format (version :data:`TRACE_SCHEMA_VERSION`) has five
record kinds, discriminated by ``kind``:

=============  =========================================================
kind           required fields
=============  =========================================================
``meta``       ``schema`` (int)
``span``       ``name`` (str), ``span`` (int ≥ 1), ``parent`` (int or
               null), ``t0``/``wall``/``cpu`` (numbers ≥ 0), ``attrs``
               (object); a ``runtime.round`` span's ``round``,
               ``attempted``, ``succeeded`` and ``failed`` attrs, where
               present, are ints ≥ 0 and its ``sim_start`` and
               ``sim_duration`` finite numbers ≥ 0
``counter``    ``name`` (str), ``value`` (int ≥ 0)
``gauge``      ``name`` (str), ``value`` (number)
``histogram``  ``name`` (str), ``boundaries`` (sorted number list),
               ``counts`` (int list, ``len == len(boundaries) + 1``),
               ``sum`` (number), ``count`` (int)
=============  =========================================================

Beyond per-record shapes, :func:`validate_trace` checks the structural
invariant of the span stream: ids are unique and parent references
resolve to other spans in the trace without cycles — i.e. the spans
form a **forest**.  (Children are written before their parents, since
a span exports when it *closes*.)

Used by ``repro-migrate stats --validate`` and the CI trace-validation
step.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.names import SPAN_ROUND
from repro.obs.trace import TRACE_SCHEMA_VERSION

KINDS = ("meta", "span", "counter", "gauge", "histogram")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_span(record: Mapping[str, Any], where: str, errors: List[str]) -> None:
    if not isinstance(record.get("name"), str):
        errors.append(f"{where}: span needs a string 'name'")
    span_id = record.get("span")
    if not isinstance(span_id, int) or isinstance(span_id, bool) or span_id < 1:
        errors.append(f"{where}: span id must be an int >= 1")
    parent = record.get("parent", "missing")
    if parent == "missing":
        errors.append(f"{where}: span needs a 'parent' (int or null)")
    elif parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
        errors.append(f"{where}: span parent must be an int or null")
    for key in ("t0", "wall", "cpu"):
        value = record.get(key)
        if not _is_number(value) or value < 0:
            errors.append(f"{where}: span {key!r} must be a number >= 0")
    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        errors.append(f"{where}: span 'attrs' must be an object")
    elif record.get("name") == SPAN_ROUND:
        _check_round_attrs(attrs, where, errors)


def _check_round_attrs(attrs: Mapping[str, Any], where: str, errors: List[str]) -> None:
    """A ``runtime.round`` span's counts and simulated times, where
    present (a round that raised closes its span without them)."""
    for key in ("round", "attempted", "succeeded", "failed"):
        value = attrs.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: round attr {key!r} must be an int >= 0")
    for key in ("sim_start", "sim_duration"):
        value = attrs.get(key, 0.0)
        if not _is_number(value) or not math.isfinite(value) or value < 0:
            errors.append(f"{where}: round attr {key!r} must be a finite number >= 0")


def _check_histogram(record: Mapping[str, Any], where: str, errors: List[str]) -> None:
    if not isinstance(record.get("name"), str):
        errors.append(f"{where}: histogram needs a string 'name'")
    bounds = record.get("boundaries")
    counts = record.get("counts")
    if not isinstance(bounds, list) or not all(_is_number(b) for b in bounds):
        errors.append(f"{where}: histogram 'boundaries' must be a number list")
    elif any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        errors.append(f"{where}: histogram boundaries must be strictly increasing")
    if not isinstance(counts, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts
    ):
        errors.append(f"{where}: histogram 'counts' must be a non-negative int list")
    elif isinstance(bounds, list) and len(counts) != len(bounds) + 1:
        errors.append(
            f"{where}: histogram needs len(counts) == len(boundaries) + 1"
        )
    if not _is_number(record.get("sum")):
        errors.append(f"{where}: histogram 'sum' must be a number")
    count = record.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        errors.append(f"{where}: histogram 'count' must be an int >= 0")


def validate_record(record: Any, index: int) -> List[str]:
    """Shape-check one record; returns error strings (empty = valid)."""
    where = f"record {index}"
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    kind = record.get("kind")
    if kind not in KINDS:
        return [f"{where}: unknown kind {kind!r} (expected one of {KINDS})"]
    if kind == "meta":
        schema = record.get("schema")
        if not isinstance(schema, int) or isinstance(schema, bool):
            errors.append(f"{where}: meta needs an int 'schema'")
        elif schema != TRACE_SCHEMA_VERSION:
            errors.append(
                f"{where}: trace schema {schema} != supported {TRACE_SCHEMA_VERSION}"
            )
    elif kind == "span":
        _check_span(record, where, errors)
    elif kind in ("counter", "gauge"):
        if not isinstance(record.get("name"), str):
            errors.append(f"{where}: {kind} needs a string 'name'")
        value = record.get("value")
        if kind == "counter":
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(f"{where}: counter 'value' must be an int >= 0")
        elif not _is_number(value):
            errors.append(f"{where}: gauge 'value' must be a number")
    elif kind == "histogram":
        _check_histogram(record, where, errors)
    return errors


def _check_forest(records: Sequence[Mapping[str, Any]], errors: List[str]) -> None:
    """Span ids unique; parents resolve; parent links are acyclic."""
    parents: Dict[int, Optional[int]] = {}
    for i, record in enumerate(records):
        if record.get("kind") != "span":
            continue
        span_id = record.get("span")
        if not isinstance(span_id, int):
            continue  # shape error already reported
        if span_id in parents:
            errors.append(f"record {i}: duplicate span id {span_id}")
            continue
        parent = record.get("parent")
        parents[span_id] = parent if isinstance(parent, int) else None
    for span_id, parent in parents.items():
        if parent is not None and parent not in parents:
            errors.append(f"span {span_id}: parent {parent} not in trace")
    # Cycle walk: follow parents, marking visited roots.
    state: Dict[int, int] = {}  # 0 = in progress, 1 = done
    for start in parents:
        path: List[int] = []
        node: Optional[int] = start
        while node is not None and node in parents and node not in state:
            state[node] = 0
            path.append(node)
            node = parents[node]
            if node is not None and state.get(node) == 0:
                errors.append(f"span {start}: parent chain forms a cycle at {node}")
                break
        for visited in path:
            state[visited] = 1


def validate_trace(records: Sequence[Any]) -> List[str]:
    """Validate a full trace; returns all errors (empty = valid)."""
    errors: List[str] = []
    for i, record in enumerate(records):
        errors.extend(validate_record(record, i))
    _check_forest([r for r in records if isinstance(r, dict)], errors)
    return errors
