"""Plan cache entries are keyed by the method ``plan`` was asked for.

The auto path solves a component with a fingerprint-derived seed and
may fall back to Saia; a forced plan solves the whole instance with
the base seed and no fallback.  On an instance that is one component with no idle disk the
two fingerprints are equal, so an entry keyed by the solver's name
would let either path read the other's plan.  Entries are keyed by
``"auto"`` or by the forced solver's name instead: on one cache, one
store or one server, every call returns its own cold bytes.

Nothing here may depend on hash order: CI runs this file under two
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import pytest

from repro.checks.certify import rounds_digest
from repro.pipeline import PlanCache, plan
from repro.serve import (
    PlanStore,
    ServerConfig,
    canonical_json,
    schedule_payload,
    start_in_process,
)
from repro.workloads.generators import random_instance
from repro.workloads.io import instance_from_json, instance_to_json

#: instance seed → method → the cold plan's digest at plan seed 0: two
#: of the 60 seeds whose paths' plans differ.
COLD = {
    23: {
        "auto": "7ec084d7722e99b50d386eb9cc7cd6817347b064d6e8ae6eb4e80f7c1028f4e3",
        "general": "a544a0824a25bb5ce010f9ba700c4758ccf32240148304bb2071206af549cbf9",
    },
    27: {
        "auto": "9bdaac197ed028afa5331e12c8d91297ba16144a1a0c68675e0b13ddc7a3394d",
        "general": "2290f3c5b165db96768ad1be2adc5a8f202a17c77cbb5ac3d46e2587db1aa73a",
    },
}

#: (first method, second method)
ORDERS = [("auto", "general"), ("general", "auto")]


def instance(seed: int):
    """One component over 10 disks, none idle, mostly capacity 1."""
    return random_instance(10, 120, capacities={1: 0.6, 2: 0.2, 3: 0.2}, seed=seed)


def digest(result) -> str:
    return rounds_digest(result.schedule.rounds)


@pytest.mark.parametrize("first, second", ORDERS)
@pytest.mark.parametrize("seed", sorted(COLD))
def test_one_cache(seed, first, second):
    """Each method's first call misses and its repeat hits its own entry."""
    cache = PlanCache()
    for method, cached in ((first, False), (second, False), (second, True),
                           (first, True)):
        result = plan(instance(seed), method, cache=cache)
        assert [c.cached for c in result.components] == [cached]
        assert digest(result) == COLD[seed][method]


@pytest.mark.parametrize("first, second", ORDERS)
@pytest.mark.parametrize("seed", sorted(COLD))
def test_one_store(tmp_path, seed, first, second):
    path = str(tmp_path / "plans.db")
    with PlanStore(path) as store:
        plan(instance(seed), first, cache=PlanCache(store=store))
    with PlanStore(path) as store:
        cache = PlanCache(store=store)
        assert cache.warm() == 1
        result = plan(instance(seed), second, cache=cache)
        assert result.components[0].cached is False
        assert digest(result) == COLD[seed][second]
        assert cache.stats.store_misses == 1


def test_served_general_after_auto_equals_direct():
    # The wire form, as the server sees it: its plans are not the raw
    # instance's, but its two paths' plans differ just the same.
    inst = instance_from_json(instance_to_json(instance(23)))
    with start_in_process(ServerConfig()) as handle:
        client = handle.client()
        # ``auto`` first, so ``general`` meets the auto path's entry.
        served = {method: client.plan(inst, method=method) for method in ORDERS[0]}
    for method, outcome in served.items():
        direct = plan(inst, method)
        assert outcome.plan_bytes == canonical_json(
            schedule_payload(inst, direct.schedule)
        ), method
    assert served["auto"].plan_bytes != served["general"].plan_bytes
