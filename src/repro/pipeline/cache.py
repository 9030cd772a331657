"""The canonical-instance-keyed plan and lower-bound cache.

Replans after a fault usually touch one connected component of the
transfer graph; every other component's instance is structurally
unchanged (same nodes, capacities and pair multiset — only its edge
ids differ, and fingerprints ignore those).  The cache makes those
untouched components free:

* **plan entries** are keyed by
  ``(fingerprint, requested method, base seed)`` (``"auto"`` or a
  forced solver's name) and hold the schedule in pair-token form
  (:mod:`repro.pipeline.canonical`), so a hit rehydrates against the
  new instance's edge ids;
* **bound entries** are keyed by fingerprint alone and hold a
  lower-bound certificate in its JSON form
  (:func:`repro.checks.certify.certificate_to_json`) — LB witnesses
  are statements about structure, not edge ids, so they survive
  replans verbatim.

Entries are evicted FIFO once ``max_entries`` is exceeded; insertion
order is deterministic, so eviction is too.  The in-memory table is
process-local, but an optional **write-through store** (anything
satisfying :class:`PlanStoreLike` — see :mod:`repro.serve.store`)
extends it across processes: a plan miss falls through to the store,
and every put is persisted, so a fresh process (or a restarted
server) warm-starts from prior solves byte-identically.

All public methods hold an internal lock, so one cache may be shared
by the planning threads of a server — interleaved gets and puts never
tear an entry or mis-key a plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Protocol, Tuple

from repro.pipeline.canonical import TokenRounds

#: JSON form of a LowerBoundCertificate (opaque to the cache).
BoundPayload = Dict[str, Any]


@dataclass(frozen=True)
class CachedPlan:
    """One solved component schedule in edge-id-free form."""

    method: str
    rounds: TokenRounds

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


class PlanStoreLike(Protocol):
    """What :class:`PlanCache` needs from a persistent plan store.

    Defined here (not in :mod:`repro.serve`) so the pipeline never
    imports the serving layer; :class:`repro.serve.store.PlanStore`
    satisfies it structurally.
    """

    def load(self, key: str) -> Optional[CachedPlan]: ...

    def save(self, key: str, plan: CachedPlan) -> None: ...

    def items(self) -> Iterable[Tuple[str, CachedPlan]]: ...


@dataclass
class CacheStats:
    """Hit/miss counters, split by entry kind."""

    plan_hits: int = 0
    plan_misses: int = 0
    bound_hits: int = 0
    bound_misses: int = 0
    #: plan misses served by the write-through store instead of a solver.
    store_hits: int = 0
    #: plan misses the store could not serve either.
    store_misses: int = 0


class PlanCache:
    """FIFO-bounded cache of component plans and lower-bound payloads.

    Args:
        max_entries: per-table entry bound (plans and bounds evict
            independently).
        store: optional persistent backend.  Plan lookups that miss
            the in-memory table fall through to ``store.load`` (a hit
            is promoted into memory), and ``put_plan`` writes through
            with ``store.save``.  Bound entries stay in-memory only.
    """

    def __init__(
        self, max_entries: int = 4096, store: Optional[PlanStoreLike] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.store = store
        self._plans: Dict[str, CachedPlan] = {}
        self._bounds: Dict[str, BoundPayload] = {}
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @staticmethod
    def plan_key(fingerprint: str, method: str, seed: int) -> str:
        return f"{fingerprint}:{method}:{seed}"

    def get_plan(
        self, fingerprint: str, method: str, seed: int
    ) -> Optional[CachedPlan]:
        key = self.plan_key(fingerprint, method, seed)
        with self._lock:
            entry = self._plans.get(key)
            if entry is None and self.store is not None:
                entry = self.store.load(key)
                if entry is None:
                    self.stats.store_misses += 1
                else:
                    self.stats.store_hits += 1
                    self._plans[key] = entry
                    self._evict(self._plans)
            if entry is None:
                self.stats.plan_misses += 1
            else:
                self.stats.plan_hits += 1
            return entry

    def put_plan(
        self, fingerprint: str, method: str, seed: int, plan: CachedPlan
    ) -> None:
        key = self.plan_key(fingerprint, method, seed)
        with self._lock:
            self._plans[key] = plan
            self._evict(self._plans)
            if self.store is not None:
                self.store.save(key, plan)

    def warm(self) -> int:
        """Preload every store entry into memory; returns the count.

        Entries load in sorted-key order so FIFO eviction under a
        small ``max_entries`` stays deterministic.
        """
        if self.store is None:
            return 0
        with self._lock:
            loaded = 0
            for key, plan in sorted(self.store.items()):
                self._plans[key] = plan
                loaded += 1
            self._evict(self._plans)
            return loaded

    # ------------------------------------------------------------------
    def get_bound(self, fingerprint: str) -> Optional[BoundPayload]:
        with self._lock:
            entry = self._bounds.get(fingerprint)
            if entry is None:
                self.stats.bound_misses += 1
            else:
                self.stats.bound_hits += 1
            return entry

    def put_bound(self, fingerprint: str, payload: Mapping[str, Any]) -> None:
        with self._lock:
            self._bounds[fingerprint] = dict(payload)
            self._evict(self._bounds)

    # ------------------------------------------------------------------
    def _evict(self, table: Dict[str, Any]) -> None:
        while len(table) > self.max_entries:
            table.pop(next(iter(table)))

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._bounds.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans) + len(self._bounds)

    def __repr__(self) -> str:
        return (
            f"PlanCache(plans={len(self._plans)}, bounds={len(self._bounds)}, "
            f"hits={self.stats.plan_hits}/{self.stats.bound_hits})"
        )
