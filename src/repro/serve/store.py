"""Persistent, content-addressed plan store.

A :class:`~repro.pipeline.cache.PlanCache` evaporates with its
process; a :class:`PlanStore` is the durable tier underneath it.
Entries are exactly the cache's plan entries — keyed by
``fingerprint:method:seed`` (:meth:`PlanCache.plan_key`; the method
``plan`` was asked for) and holding a
:class:`~repro.pipeline.cache.CachedPlan` in pair-token form — so a
store is nothing more than a cache mirror that survives restarts.
Fingerprints are relabeling-invariant SHA-256 digests, which makes the
store content-addressed: byte-identical structure ⇒ same key ⇒ the
prior solve is reused verbatim.

A store is one SQLite file, whatever the path's suffix.  Writes
buffer in the connection and land on :meth:`PlanStore.flush` /
:meth:`PlanStore.close`; a process that exits without either keeps
exactly what it last committed.  Access is serialized with a lock, so
one store may back the planning threads of a server.  Payloads are
canonical sorted-key JSON.  A path that is not a plan store (a text
file, a directory, another format version) raises
:class:`PlanStoreError` at open, and a corrupt record raises it when
it is read, rather than silently serving a wrong plan.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.pipeline.cache import CachedPlan
from repro.pipeline.canonical import decode_token_plan, encode_token_plan

#: Store format version, kept in the store's ``meta`` table; it moves
#: whenever the frozen plan digests move.  Format 1 keyed an auto plan
#: by its selected solver, the key a forced plan of that solver also
#: used; format 2 keyed by the requested method; 3 adds the fallback.
STORE_FORMAT_VERSION = 3


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


class PlanStore:
    """Durable ``key -> CachedPlan`` mapping in one SQLite file (see
    module docstring).

    Satisfies :class:`repro.pipeline.cache.PlanStoreLike`, so it can be
    passed straight to ``PlanCache(store=...)``.  The connection is
    created with ``check_same_thread=False`` and all access is
    serialized by the store's own lock, so planner threads can share
    one instance.
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
            except sqlite3.Error as exc:
                conn.close()
                raise PlanStoreError(
                    f"{self.path!r} is not a plan store: {exc}"
                ) from exc
            if row is not None and row[0] != str(STORE_FORMAT_VERSION):
                conn.close()
                raise PlanStoreError(
                    f"{self.path!r} has store format {row[0]}, "
                    f"expected {STORE_FORMAT_VERSION}"
                )

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise PlanStoreError(f"store {self.path!r} is closed")
        return self._conn

    def _decode(self, key: str, blob: Any) -> CachedPlan:
        try:
            payload = json.loads(blob)
        except (TypeError, ValueError) as exc:
            raise PlanStoreError(
                f"corrupt plan payload for key {key!r} in {self.path!r}: {exc}"
            ) from exc
        return plan_from_payload(payload)

    def load(self, key: str) -> Optional[CachedPlan]:
        """The stored plan for ``key``, or ``None``."""
        with self._lock:
            row = self._connection().execute(
                "SELECT payload FROM plans WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        return self._decode(key, row[0])

    def save(self, key: str, plan: CachedPlan) -> None:
        """Persist ``plan`` under ``key`` (last write wins)."""
        blob = json.dumps(plan_to_payload(plan), sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._connection().execute(
                "INSERT OR REPLACE INTO plans (key, payload) VALUES (?, ?)",
                (key, blob),
            )

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        with self._lock:
            rows = self._connection().execute(
                "SELECT key FROM plans ORDER BY key"
            ).fetchall()
        return [str(row[0]) for row in rows]

    def items(self) -> List[Tuple[str, CachedPlan]]:
        """Every ``(key, plan)`` pair, sorted by key, from one query.

        Raises:
            PlanStoreError: on a record :meth:`load` would refuse.
        """
        with self._lock:
            try:
                rows = self._connection().execute(
                    "SELECT key, payload FROM plans ORDER BY key"
                ).fetchall()
            except sqlite3.Error as exc:
                raise PlanStoreError(
                    f"{self.path!r} is not a plan store: {exc}"
                ) from exc
        return [(str(key), self._decode(str(key), blob)) for key, blob in rows]

    def flush(self) -> None:
        """Commit buffered writes to the file."""
        with self._lock:
            self._connection().commit()

    def close(self) -> None:
        """Commit and release the file; further use is an error."""
        with self._lock:
            if self._conn is not None:
                self._conn.commit()
                self._conn.close()
                self._conn = None

    def __len__(self) -> int:
        return len(self.keys())

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"PlanStore({self.path!r})"
