"""Persistent, content-addressed plan stores.

A :class:`~repro.pipeline.cache.PlanCache` evaporates with its
process; a :class:`PlanStore` is the durable tier underneath it.
Entries are exactly the cache's plan entries — keyed by
``fingerprint:method:seed`` (:meth:`PlanCache.plan_key`) and holding a
:class:`~repro.pipeline.cache.CachedPlan` in pair-token form — so a
store is nothing more than a cache mirror that survives restarts.
Fingerprints are relabeling-invariant SHA-256 digests, which makes the
store content-addressed: byte-identical structure ⇒ same key ⇒ the
prior solve is reused verbatim.

Two backends behind one ABC:

* :class:`SqlitePlanStore` — a single-file SQLite database; writes
  buffer in the connection and land on :meth:`flush`/:meth:`close`.
  The right choice for large stores (point lookups never scan).
* :class:`JsonlPlanStore` — a directory holding an append-only
  ``plans.jsonl`` log (last write wins on load) — greppable,
  diff-able, and trivially mergeable across hosts.

:func:`open_store` picks a backend from the path: ``.db`` /
``.sqlite`` / ``.sqlite3`` suffixes mean SQLite, anything else is a
JSONL directory.

Both backends serialize access with a lock, so one store may back the
planning threads of a server.  Payloads are canonical sorted-key
JSON; a corrupt record raises :class:`PlanStoreError` at load rather
than silently serving a wrong plan.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.pipeline.cache import CachedPlan
from repro.pipeline.canonical import decode_token_plan, encode_token_plan

#: Store format version, embedded in every backend.
STORE_FORMAT_VERSION = 1

#: Log filename inside a :class:`JsonlPlanStore` directory.
JSONL_LOG_NAME = "plans.jsonl"

#: Path suffixes routed to the SQLite backend by :func:`open_store`.
SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


class PlanStoreError(Exception):
    """A store file is unreadable, corrupt, or version-incompatible."""


def plan_to_payload(plan: CachedPlan) -> Dict[str, Any]:
    """A :class:`CachedPlan`'s JSON-ready form
    (:func:`repro.pipeline.canonical.encode_token_plan`)."""
    return encode_token_plan(plan.method, plan.rounds)


def plan_from_payload(payload: Any) -> CachedPlan:
    """Inverse of :func:`plan_to_payload`.

    Raises:
        PlanStoreError: when the payload is malformed.
    """
    try:
        method, rounds = decode_token_plan(payload)
    except ValueError as exc:
        raise PlanStoreError(f"malformed plan payload: {exc}") from exc
    return CachedPlan(method=method, rounds=rounds)


class PlanStore(ABC):
    """Durable ``key -> CachedPlan`` mapping (see module docstring).

    Satisfies :class:`repro.pipeline.cache.PlanStoreLike`, so any
    backend can be passed straight to ``PlanCache(store=...)``.
    """

    @abstractmethod
    def load(self, key: str) -> Optional[CachedPlan]:
        """The stored plan for ``key``, or ``None``."""

    @abstractmethod
    def save(self, key: str, plan: CachedPlan) -> None:
        """Persist ``plan`` under ``key`` (last write wins)."""

    @abstractmethod
    def keys(self) -> List[str]:
        """Every stored key, sorted."""

    @abstractmethod
    def flush(self) -> None:
        """Force buffered writes to durable storage."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release the backend; further use is an error."""

    def items(self) -> Iterator[Tuple[str, CachedPlan]]:
        """Every ``(key, plan)`` pair, sorted by key."""
        for key in self.keys():
            plan = self.load(key)
            if plan is not None:
                yield key, plan

    def __len__(self) -> int:
        return len(self.keys())

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# SQLite backend
# ----------------------------------------------------------------------

class SqlitePlanStore(PlanStore):
    """Single-file SQLite backend.

    The connection is created with ``check_same_thread=False`` and all
    access is serialized by the store's own lock, so planner threads
    can share one instance.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        try:
            self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise PlanStoreError(f"cannot open {self.path!r}: {exc}") from exc
        with self._lock:
            conn = self._connection()
            try:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS plans "
                    "(key TEXT PRIMARY KEY, payload TEXT NOT NULL)"
                )
                row = conn.execute(
                    "SELECT value FROM meta WHERE key = 'format_version'"
                ).fetchone()
                if row is None:
                    conn.execute(
                        "INSERT INTO meta (key, value) VALUES ('format_version', ?)",
                        (str(STORE_FORMAT_VERSION),),
                    )
                    conn.commit()
                elif row[0] != str(STORE_FORMAT_VERSION):
                    raise PlanStoreError(
                        f"{self.path!r} has store format {row[0]}, "
                        f"expected {STORE_FORMAT_VERSION}"
                    )
            except sqlite3.Error as exc:
                raise PlanStoreError(
                    f"{self.path!r} is not a plan store: {exc}"
                ) from exc

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise PlanStoreError(f"store {self.path!r} is closed")
        return self._conn

    def load(self, key: str) -> Optional[CachedPlan]:
        with self._lock:
            row = self._connection().execute(
                "SELECT payload FROM plans WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise PlanStoreError(
                f"corrupt plan payload for key {key!r} in {self.path!r}: {exc}"
            ) from exc
        return plan_from_payload(payload)

    def save(self, key: str, plan: CachedPlan) -> None:
        blob = json.dumps(plan_to_payload(plan), sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._connection().execute(
                "INSERT OR REPLACE INTO plans (key, payload) VALUES (?, ?)",
                (key, blob),
            )

    def keys(self) -> List[str]:
        with self._lock:
            rows = self._connection().execute(
                "SELECT key FROM plans ORDER BY key"
            ).fetchall()
        return [str(row[0]) for row in rows]

    def flush(self) -> None:
        with self._lock:
            self._connection().commit()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.commit()
                self._conn.close()
                self._conn = None

    def __repr__(self) -> str:
        return f"SqlitePlanStore({self.path!r})"


# ----------------------------------------------------------------------
# JSONL-directory backend
# ----------------------------------------------------------------------

class JsonlPlanStore(PlanStore):
    """Append-only JSONL log inside a directory.

    The whole log loads into memory at open (last write per key wins);
    saves append to an in-memory buffer that :meth:`flush` appends to
    the log file.  :meth:`compact` rewrites the log with one record
    per live key.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self._lock = threading.RLock()
        self._entries: Dict[str, CachedPlan] = {}
        self._pending: List[Tuple[str, CachedPlan]] = []
        self._closed = False
        os.makedirs(self.directory, exist_ok=True)
        self._log_path = os.path.join(self.directory, JSONL_LOG_NAME)
        if os.path.exists(self._log_path):
            self._load_log()

    def _load_log(self) -> None:
        with open(self._log_path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise PlanStoreError(
                        f"{self._log_path}:{lineno}: corrupt record: {exc}"
                    ) from exc
                if not isinstance(record, dict):
                    raise PlanStoreError(
                        f"{self._log_path}:{lineno}: record is not an object"
                    )
                if record.get("format") == "repro-plan-store":
                    version = record.get("version")
                    if version != STORE_FORMAT_VERSION:
                        raise PlanStoreError(
                            f"{self._log_path}: store format {version!r}, "
                            f"expected {STORE_FORMAT_VERSION}"
                        )
                    continue
                key = record.get("key")
                if not isinstance(key, str):
                    raise PlanStoreError(
                        f"{self._log_path}:{lineno}: record has no string 'key'"
                    )
                self._entries[key] = plan_from_payload(record.get("plan"))

    def _check_open(self) -> None:
        if self._closed:
            raise PlanStoreError(f"store {self.directory!r} is closed")

    def load(self, key: str) -> Optional[CachedPlan]:
        with self._lock:
            self._check_open()
            return self._entries.get(key)

    def save(self, key: str, plan: CachedPlan) -> None:
        with self._lock:
            self._check_open()
            self._entries[key] = plan
            self._pending.append((key, plan))

    def keys(self) -> List[str]:
        with self._lock:
            self._check_open()
            return sorted(self._entries)

    def _header_line(self) -> str:
        return json.dumps(
            {"format": "repro-plan-store", "version": STORE_FORMAT_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )

    def _record_line(self, key: str, plan: CachedPlan) -> str:
        return json.dumps(
            {"key": key, "plan": plan_to_payload(plan)},
            sort_keys=True,
            separators=(",", ":"),
        )

    def flush(self) -> None:
        with self._lock:
            self._check_open()
            if not self._pending:
                return
            fresh = not os.path.exists(self._log_path)
            with open(self._log_path, "a") as handle:
                if fresh:
                    handle.write(self._header_line() + "\n")
                for key, plan in self._pending:
                    handle.write(self._record_line(key, plan) + "\n")
            self._pending.clear()

    def compact(self) -> None:
        """Rewrite the log with exactly one record per live key."""
        with self._lock:
            self._check_open()
            tmp_path = self._log_path + ".tmp"
            with open(tmp_path, "w") as handle:
                handle.write(self._header_line() + "\n")
                for key in sorted(self._entries):
                    handle.write(self._record_line(key, self._entries[key]) + "\n")
            os.replace(tmp_path, self._log_path)
            self._pending.clear()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self.flush()
                self._closed = True

    def __repr__(self) -> str:
        return f"JsonlPlanStore({self.directory!r})"


def open_store(path: str) -> PlanStore:
    """Open (creating if absent) the store at ``path``.

    A path ending in ``.db`` / ``.sqlite`` / ``.sqlite3`` opens the
    SQLite backend; anything else is treated as a JSONL directory.
    """
    lowered = path.lower()
    if any(lowered.endswith(suffix) for suffix in SQLITE_SUFFIXES):
        return SqlitePlanStore(path)
    return JsonlPlanStore(path)
