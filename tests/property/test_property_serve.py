"""Property tests for the serving layer's shared-state invariants.

The satellite contract: interleaved get/put/coalesce sequences against
one store-backed :class:`PlanCache` never return a plan that belongs
to a different key than the one requested — across threads, eviction,
store fall-through and warm-starts.

Each key's plan is self-describing (its method embeds the key id), so
any cross-key mix-up is directly observable in the returned value.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.cache import CachedPlan, PlanCache
from repro.serve.store import PlanStore


class MemoryStore:
    """An in-memory ``PlanStoreLike``: what ``PlanCache`` needs of a
    store (``load`` / ``save`` / ``items``) without disk I/O."""

    def __init__(self):
        self._lock = threading.RLock()
        self._data = {}

    def load(self, key):
        with self._lock:
            return self._data.get(key)

    def save(self, key, plan):
        with self._lock:
            self._data[key] = plan

    def items(self):
        with self._lock:
            return sorted(self._data.items())


#: A small key universe: (fingerprint, method, seed) triples.
KEYS = [(f"{k:064x}", f"m{k % 3}", k % 2) for k in range(8)]


def expected_plan(key_id: int) -> CachedPlan:
    """The unique, self-describing plan for key ``key_id``."""
    fingerprint, method, seed = KEYS[key_id]
    return CachedPlan(
        method=f"{method}#key={key_id}",
        rounds=(((f"'u{key_id}'", f"'v{key_id}'", seed),),),
    )


# An op is (kind, key_id): 0=get, 1=put, 2=get-or-solve (the coalesce
# shape: read, solve-and-write on miss, read back).
ops_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, len(KEYS) - 1)),
    min_size=1,
    max_size=40,
)


def run_ops(cache: PlanCache, ops, failures):
    for kind, key_id in ops:
        key = KEYS[key_id]
        if kind == 0:
            got = cache.get_plan(*key)
        elif kind == 1:
            cache.put_plan(*key, expected_plan(key_id))
            got = expected_plan(key_id)
        else:
            got = cache.get_plan(*key)
            if got is None:
                cache.put_plan(*key, expected_plan(key_id))
                got = cache.get_plan(*key)
        if got is not None and got != expected_plan(key_id):
            failures.append((key_id, got))


class TestInterleavedAccessNeverMiskeys:
    @settings(max_examples=40, deadline=None)
    @given(per_thread=st.lists(ops_strategy, min_size=2, max_size=4))
    def test_threads_sharing_a_store_backed_cache(self, per_thread):
        cache = PlanCache(max_entries=4, store=MemoryStore())
        failures = []
        threads = [
            threading.Thread(target=run_ops, args=(cache, ops, failures))
            for ops in per_thread
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, f"mismatched plans returned: {failures[:3]}"

    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy, warm_at=st.integers(0, 39))
    def test_warm_start_preserves_keying(self, ops, warm_at):
        store = MemoryStore()
        cache = PlanCache(max_entries=3, store=store)
        failures = []
        run_ops(cache, ops[:warm_at], failures)
        # A "restart": a fresh cache warm-started from the same store.
        cache = PlanCache(max_entries=3, store=store)
        cache.warm()
        run_ops(cache, ops[warm_at:], failures)
        assert not failures

    @settings(max_examples=15, deadline=None)
    @given(ops=ops_strategy)
    def test_file_backed_cache_round_trips(self, ops, tmp_path_factory):
        path = tmp_path_factory.mktemp("plans") / "plans.db"
        store = PlanStore(str(path))
        cache = PlanCache(max_entries=4, store=store)
        failures = []
        run_ops(cache, ops, failures)
        store.flush()
        assert not failures
        # Reload from disk: every persisted plan still matches its key.
        reopened = PlanStore(str(path))
        for key_id in range(len(KEYS)):
            plan = reopened.load(PlanCache.plan_key(*KEYS[key_id]))
            assert plan is None or plan == expected_plan(key_id)
        reopened.close()
        store.close()
