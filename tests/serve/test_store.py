"""Tests for the persistent plan store (repro.serve.store)."""

import os
import pathlib
import sqlite3
import subprocess
import sys

import pytest

from repro.pipeline.cache import CachedPlan, PlanCache
from repro.serve.store import (
    PlanStore,
    PlanStoreError,
    plan_from_payload,
    plan_to_payload,
)


def sample_plan(tag: str = "a", rounds: int = 2) -> CachedPlan:
    return CachedPlan(
        method="general",
        rounds=tuple(
            ((f"'{tag}{k}'", f"'{tag}{k + 1}'", 0),) for k in range(rounds)
        ),
    )


#: Commits one plan, saves a second and exits without a commit or close.
EXIT_WITHOUT_CLOSE = """
import os, sys
from repro.pipeline.cache import CachedPlan
from repro.serve.store import PlanStore

store = PlanStore(sys.argv[1])
plan = CachedPlan("general", ((("'a'", "'b'", 0),),))
store.save("committed", plan)
store.flush()
store.save("pending", plan)
os._exit(0)
"""


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "plans.sqlite")


class TestPlanStore:
    def test_save_load_round_trip(self, store_path):
        plan = sample_plan()
        with PlanStore(store_path) as store:
            assert store.load("k1") is None
            store.save("k1", plan)
            assert store.load("k1") == plan

    def test_persistence_across_reopen(self, store_path):
        plan = sample_plan("b", rounds=3)
        with PlanStore(store_path) as store:
            store.save("k1", plan)
            store.save("k2", sample_plan("c"))
        with PlanStore(store_path) as store:
            assert store.load("k1") == plan
            assert store.keys() == ["k1", "k2"]
            assert len(store) == 2

    def test_last_write_wins(self, store_path):
        newer = sample_plan("z", rounds=1)
        with PlanStore(store_path) as store:
            store.save("k", sample_plan("a"))
            store.save("k", newer)
        with PlanStore(store_path) as store:
            assert store.load("k") == newer

    def test_items_sorted(self, store_path):
        with PlanStore(store_path) as store:
            store.save("b", sample_plan("b"))
            store.save("a", sample_plan("a"))
            assert [k for k, _ in store.items()] == ["a", "b"]

    def test_closed_store_raises(self, store_path):
        store = PlanStore(store_path)
        store.close()
        with pytest.raises(PlanStoreError):
            store.load("k")

    def test_flush_makes_writes_durable(self, store_path):
        store = PlanStore(store_path)
        store.save("k", sample_plan())
        store.flush()
        # A second handle opened before close sees the flushed write.
        other = PlanStore(store_path)
        try:
            assert other.load("k") == sample_plan()
        finally:
            other.close()
            store.close()

    def test_exit_without_close_keeps_the_last_commit(self, store_path):
        """A process that dies between commits leaves a store that
        opens, holding exactly what it committed."""
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c", EXIT_WITHOUT_CLOSE, store_path],
            env=env, check=True, timeout=60,
        )
        with PlanStore(store_path) as store:
            assert store.keys() == ["committed"]


class TestOneFileWhateverTheSuffix:
    @pytest.mark.parametrize("name", ["p.db", "p.sqlite", "p.SQLITE3", "plans"])
    def test_opens_one_sqlite_file(self, tmp_path, name):
        path = tmp_path / name
        with PlanStore(str(path)) as store:
            store.save("k", sample_plan())
        assert path.is_file()
        with sqlite3.connect(str(path)) as conn:
            assert conn.execute("SELECT key FROM plans").fetchall() == [("k",)]


class TestCorruption:
    def test_sqlite_wrong_format_version(self, tmp_path):
        path = str(tmp_path / "p.db")
        PlanStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'format_version'")
        conn.commit()
        conn.close()
        with pytest.raises(PlanStoreError):
            PlanStore(path)

    def test_sqlite_corrupt_payload(self, tmp_path):
        path = str(tmp_path / "p.db")
        store = PlanStore(path)
        store.save("k", sample_plan())
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE plans SET payload = '{oops' WHERE key = 'k'")
        conn.commit()
        conn.close()
        store = PlanStore(path)
        with pytest.raises(PlanStoreError):
            store.load("k")
        store.close()

    @pytest.mark.parametrize("payload", ["'{oops'", "X'FF'"], ids=["text", "blob"])
    def test_items_raise_on_a_corrupt_row(self, tmp_path, payload):
        """``items`` is what ``PlanCache.warm`` reads: a corrupt row is
        a typed error there too, whether it holds broken JSON or bytes
        that are not text."""
        path = str(tmp_path / "p.db")
        with PlanStore(path) as store:
            store.save("a", sample_plan("a"))
            store.save("k", sample_plan())
        conn = sqlite3.connect(path)
        conn.execute(f"UPDATE plans SET payload = {payload} WHERE key = 'k'")
        conn.commit()
        conn.close()
        with PlanStore(path) as store:
            with pytest.raises(PlanStoreError, match="corrupt plan payload for key 'k'"):
                store.items()
            with pytest.raises(PlanStoreError):
                PlanCache(store=store).warm()


class TestPayloadCodec:
    def test_round_trip(self):
        plan = sample_plan("q", rounds=4)
        assert plan_from_payload(plan_to_payload(plan)) == plan

    @pytest.mark.parametrize(
        "payload",
        [None, [], {"method": "x"}, {"rounds": []}, {"method": "x", "rounds": 3}],
    )
    def test_malformed_payloads(self, payload):
        with pytest.raises(PlanStoreError):
            plan_from_payload(payload)


class TestCacheIntegration:
    def test_write_through_and_fall_through(self, store_path):
        store = PlanStore(store_path)
        cache = PlanCache(store=store)
        key = ("f" * 64, "general", 0)
        cache.put_plan(*key, sample_plan())
        assert store.load(PlanCache.plan_key(*key)) == sample_plan()

        fresh = PlanCache(store=store)
        assert fresh.get_plan(*key) == sample_plan()
        assert fresh.stats.store_hits == 1
        assert fresh.get_plan("0" * 64, "general", 0) is None
        assert fresh.stats.store_misses == 1
        store.close()

    def test_warm_restores_across_processes_worth_of_state(self, store_path):
        with PlanStore(store_path) as store:
            cache = PlanCache(store=store)
            cache.put_plan("a" * 64, "auto", 0, sample_plan("a"))
            cache.put_plan("b" * 64, "auto", 1, sample_plan("b"))
            store.flush()
        with PlanStore(store_path) as store:
            cache = PlanCache(store=store)
            assert cache.warm() == 2
            # Warmed entries hit memory, not the store.
            assert cache.get_plan("a" * 64, "auto", 0) == sample_plan("a")
            assert cache.stats.store_hits == 0
            assert cache.stats.plan_hits == 1

    def test_warm_without_store_is_zero(self):
        assert PlanCache().warm() == 0
