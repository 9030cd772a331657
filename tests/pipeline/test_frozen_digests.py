"""Frozen schedule digests: the byte-identity oracle for planning.

``tests/data/plan_digests.json`` records the certified plan of every
instance in the engine and exact corpora (:mod:`repro.checks.engine`)
at seeds 0 and 1, under ``"auto"`` and under every registered method
whose ``applicable()`` accepts the instance, plus one three-link
``plan_delta`` chain that shares a plan cache.  Each entry keeps the
method label, round count, sha256 schedule digest, verified lower
bound and ``certified_optimal`` (or the type name of the exception the
method raises), so a change to a solver kernel, the canonical form,
the cache or seed derivation that moves any schedule byte fails here
and names the entry.

Rewrite the file only for an intended, certificate-checked change of
output::

    PYTHONPATH=src python -m tests.pipeline.test_frozen_digests

Before it writes, the rewrite prints every entry whose record changed,
then, under its own heading, every entry whose outcome changed (any
field but the digest: method, rounds, lower bound, certified_optimal,
dispositions or error), then the changed entries counted per method
label, so a digest-only change is plain to see.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.checks.engine import DEFAULT_CORPUS, EXACT_CORPUS, schedule_digest
from repro.core.delta import InstanceDelta
from repro.core.problem import MigrationInstance
from repro.pipeline import PlanCache, plan, plan_delta
from repro.pipeline.registry import get_solver, solver_names
from repro.workloads.generators import multi_component_instance

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "plan_digests.json",
)

SEEDS = (0, 1)

Record = Dict[str, Any]

#: The replanning chain: each delta applies to the previous link's
#: patched instance, all links sharing one plan cache.
DELTA_CHAIN: Tuple[InstanceDelta, ...] = (
    InstanceDelta(
        add_moves=(("c0.disk0", "c0.disk3"),),
        remove_moves=(("c1.disk0", "c1.disk1"),),
    ),
    InstanceDelta(
        retarget_moves=(("c2.disk0", "c2.disk1", "c2.disk4"),),
        capacity_changes=(("c2.disk2", 3),),
    ),
    InstanceDelta(
        add_moves=(("c1.disk2", "c1.disk5"), ("c1.disk5", "c1.disk2")),
        capacity_changes=(("c0.disk1", 3),),
    ),
)


def _corpus_instances() -> List[Tuple[str, Callable[[], MigrationInstance]]]:
    named = [(f"engine/{name}", factory) for name, _method, factory in DEFAULT_CORPUS]
    named += [(f"exact/{name}", factory) for name, factory in EXACT_CORPUS]
    return named


def _plan_record(instance: MigrationInstance, method: str, seed: int) -> Record:
    try:
        result = plan(instance, method=method, seed=seed, certify=True)
    except ValueError as exc:
        return {"error": type(exc).__name__}
    return {
        "method": result.schedule.method,
        "rounds": result.num_rounds,
        "digest": schedule_digest(result.schedule.rounds),
        "lower_bound": result.lower_bound,
        "certified_optimal": result.certified_optimal,
    }


@functools.lru_cache(maxsize=1)
def _delta_chain_records() -> Tuple[Record, ...]:
    cache = PlanCache(max_entries=512)
    instance = multi_component_instance(
        3, disks_per_component=6, items_per_component=25, seed=17
    )
    result = plan(instance, "auto", 0, cache=cache, certify=True)
    records = []
    for delta in DELTA_CHAIN:
        result = plan_delta(result, delta, cache=cache, certify=True)
        records.append({
            "rounds": result.num_rounds,
            "digest": schedule_digest(result.schedule.rounds),
            "dispositions": list(result.dispositions),
            "bound": result.lower_bound,
        })
    return tuple(records)


def _delta_link_record(link: int) -> Record:
    return _delta_chain_records()[link]


def corpus_entries() -> Dict[str, Callable[[], Record]]:
    """Entry name -> thunk computing its record with the current code."""
    entries: Dict[str, Callable[[], Record]] = {}
    for name, factory in _corpus_instances():
        instance = factory()
        methods = ["auto"] + [
            m for m in solver_names() if get_solver(m).applicable(instance)
        ]
        for seed in SEEDS:
            for method in methods:
                entries[f"{name}/seed{seed}/{method}"] = functools.partial(
                    _plan_record, instance, method, seed
                )
    for link in range(len(DELTA_CHAIN)):
        entries[f"delta-chain/link{link + 1}"] = functools.partial(
            _delta_link_record, link
        )
    return entries


def load_frozen() -> Dict[str, Record]:
    """The checked-in records; empty (so the name check fails) if the
    file is missing."""
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        frozen: Dict[str, Record] = json.load(fh)
    return frozen


ENTRIES = corpus_entries()
FROZEN = load_frozen()


def test_corpus_names_match_frozen_file():
    assert sorted(ENTRIES) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_entry_is_unchanged(name):
    assert name in ENTRIES, f"{name}: frozen entry no longer in the corpus"
    assert ENTRIES[name]() == FROZEN[name], f"{name}: plan output changed"


def method_label(name: str) -> str:
    """The method an entry plans with; ``delta-chain`` for chain links."""
    if name.startswith("delta-chain/"):
        return "delta-chain"
    return name.rsplit("/", 1)[-1]


def _outcome(record: Optional[Record]) -> Optional[Record]:
    if record is None:
        return None
    return {key: value for key, value in record.items() if key != "digest"}


def change_summary(old: Dict[str, Record], new: Dict[str, Record]) -> List[str]:
    """Report lines naming every entry that differs between two files."""
    changed = sorted(
        name for name in set(old) | set(new) if old.get(name) != new.get(name)
    )
    moved = [
        name for name in changed
        if _outcome(old.get(name)) != _outcome(new.get(name))
    ]
    lines = [f"{len(changed)} of {len(new)} entries changed:"]
    lines += [f"  {name}" for name in changed]
    lines.append(f"{len(moved)} entries changed more than their digest:")
    lines += [
        f"  {name}: {_outcome(old.get(name))} -> {_outcome(new.get(name))}"
        for name in moved
    ]
    lines.append("changed entries per method label:")
    counts = Counter(method_label(name) for name in changed)
    lines += [f"  {label}: {count}" for label, count in sorted(counts.items())]
    return lines


def test_change_summary_separates_digest_only_changes():
    old = {
        "a/seed0/auto": {"method": "x", "rounds": 3, "digest": "d1"},
        "a/seed0/even_optimal": {"method": "y", "rounds": 3, "digest": "d2"},
        "delta-chain/link1": {"rounds": 4, "digest": "d3"},
    }
    new = {
        "a/seed0/auto": {"method": "x", "rounds": 3, "digest": "d1"},
        "a/seed0/even_optimal": {"method": "y", "rounds": 3, "digest": "e2"},
        "delta-chain/link1": {"rounds": 5, "digest": "d3"},
    }
    assert change_summary(old, new) == [
        "2 of 3 entries changed:",
        "  a/seed0/even_optimal",
        "  delta-chain/link1",
        "1 entries changed more than their digest:",
        "  delta-chain/link1: {'rounds': 4} -> {'rounds': 5}",
        "changed entries per method label:",
        "  delta-chain: 1",
        "  even_optimal: 1",
    ]


def main() -> None:
    records = {name: compute() for name, compute in ENTRIES.items()}
    print("\n".join(change_summary(FROZEN, records)))
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} entries to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
