"""Frozen lower-bound certificates: the byte-identity oracle for LB1/LB2.

``tests/data/lb_certificates.json`` records
``certificate_to_json(make_certificate(instance, exact_small=e))`` for
``e`` in ``(True, False)`` on every instance of the engine and exact
corpora (:mod:`repro.checks.engine`), plus shapes that load the LB2
kernels harder than the corpora do: components of 9–14 disks (also
certified one component at a time, and through ``plan(certify=True)``,
which composes per-component certificates), random instances at the
exhaustive cap, unit-capacity cycles with repeated pairs, integer-named
graphs whose ``repr`` order differs from insertion order, and the
400-disk random and 68-regular shapes where every peel ratio ties.

The plan digests (:mod:`tests.pipeline.test_frozen_digests`) pin each
plan's bound but not which witness proves it; this file pins the
witness, so a lower-bound kernel that picked a different, equally good
subset fails here and names the entry.

Rewrite the file only for an intended change of certificate output::

    PYTHONPATH=src python -m tests.core.test_frozen_certificates

Before it writes, the rewrite prints every entry whose record changed
with the fields that moved in it, then, under its own heading, every
entry whose ``bound``, ``lb1`` or ``exact`` moved, so a change that
only swaps LB2 witnesses is plain to see.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.checks.certify import certificate_to_json, make_certificate
from repro.checks.engine import DEFAULT_CORPUS, EXACT_CORPUS
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import plan
from repro.pipeline.stages import decompose
from repro.workloads.generators import (
    multi_component_instance,
    random_instance,
    regular_instance,
)
from tests.conftest import random_instance as int_named_instance

CERTIFICATES_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "lb_certificates.json",
)

Record = Dict[str, Any]

#: The capacity mix of the odd-capacity fleets: c_v in {1, 2, 3}.
ODD_MIX = {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}


def _unit_cycle(length: int, repeats: int) -> MigrationInstance:
    """A unit-capacity odd cycle with every pair repeated."""
    nodes = [f"cyc{length}.d{i}" for i in range(length)]
    graph = Multigraph(nodes=nodes)
    for i in range(length):
        for _ in range(repeats):
            graph.add_edge(nodes[i], nodes[(i + 1) % length])
    return MigrationInstance(graph, {v: 1 for v in nodes})


def _lb2_shapes() -> List[Tuple[str, Callable[[], MigrationInstance]]]:
    shapes: List[Tuple[str, Callable[[], MigrationInstance]]] = []
    for seed in range(4):
        shapes.append((
            f"cap/random-14x200/seed{seed}",
            functools.partial(random_instance, 14, 200, ODD_MIX, seed),
        ))
    for disks, items in ((9, 90), (10, 40), (11, 60), (12, 80), (13, 120)):
        for seed in range(3):
            shapes.append((
                f"small/random-{disks}x{items}/seed{seed}",
                functools.partial(random_instance, disks, items, ODD_MIX, seed),
            ))
    for seed in range(3):
        shapes.append((
            f"small/unit-12x30/seed{seed}",
            functools.partial(random_instance, 12, 30, (), seed, 1),
        ))
        shapes.append((
            f"small/int-named-13x40/seed{seed}",
            functools.partial(int_named_instance, 13, 40, (1, 2, 3), seed),
        ))
        shapes.append((
            f"small/int-named-sparse-14x16/seed{seed}",
            functools.partial(int_named_instance, 14, 16, (1, 2), seed),
        ))
    shapes.append(("small/unit-cycle-5x4", functools.partial(_unit_cycle, 5, 4)))
    shapes.append(("small/unit-cycle-7x3", functools.partial(_unit_cycle, 7, 3)))
    shapes.append((
        "multi/3x9",
        functools.partial(multi_component_instance, 3, 9, 90, 5),
    ))
    shapes.append((
        "multi/2x14",
        functools.partial(multi_component_instance, 2, 14, 150, 8),
    ))
    shapes.append((
        "wide/random-400x8000",
        functools.partial(random_instance, 400, 8000, ODD_MIX, 1),
    ))
    shapes.append((
        "wide/regular-400x68",
        functools.partial(regular_instance, 400, 68, 2, 0),
    ))
    shapes.append((
        "wide/random-64x8000",
        functools.partial(random_instance, 64, 8000, {2: 0.5, 4: 0.5}, 2),
    ))
    return shapes


def _instances() -> List[Tuple[str, Callable[[], MigrationInstance]]]:
    named = [(f"engine/{name}", factory) for name, _method, factory in DEFAULT_CORPUS]
    named += [(f"exact/{name}", factory) for name, factory in EXACT_CORPUS]
    named += [(f"lb2/{name}", factory) for name, factory in _lb2_shapes()]
    return named


def _certificate_record(
    factory: Callable[[], MigrationInstance], exact_small: bool
) -> Record:
    return certificate_to_json(make_certificate(factory(), exact_small=exact_small))


def _component_record(
    factory: Callable[[], MigrationInstance], index: int, exact_small: bool
) -> Record:
    component = decompose(factory())[index]
    return certificate_to_json(
        make_certificate(component.instance, exact_small=exact_small)
    )


def _plan_record(factory: Callable[[], MigrationInstance]) -> Record:
    result = plan(factory(), certify=True)
    assert result.certificate is not None
    return certificate_to_json(result.certificate)


def corpus_entries() -> Dict[str, Callable[[], Record]]:
    """Entry name -> thunk computing its record with the current code."""
    entries: Dict[str, Callable[[], Record]] = {}
    for name, factory in _instances():
        for exact_small in (True, False):
            mode = "exact" if exact_small else "heuristic"
            entries[f"{name}/{mode}"] = functools.partial(
                _certificate_record, factory, exact_small
            )
        if name.startswith("lb2/multi/"):
            for index in range(len(decompose(factory()))):
                entries[f"{name}/component{index}/exact"] = functools.partial(
                    _component_record, factory, index, True
                )
            entries[f"{name}/plan"] = functools.partial(_plan_record, factory)
    return entries


def load_frozen() -> Dict[str, Record]:
    """The checked-in records; empty (so the name check fails) if the
    file is missing."""
    if not os.path.exists(CERTIFICATES_PATH):
        return {}
    with open(CERTIFICATES_PATH, encoding="utf-8") as fh:
        frozen: Dict[str, Record] = json.load(fh)
    return frozen


ENTRIES = corpus_entries()
FROZEN = load_frozen()


def test_corpus_names_match_frozen_file():
    assert sorted(ENTRIES) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_certificate_is_unchanged(name):
    assert name in ENTRIES, f"{name}: frozen entry no longer in the corpus"
    assert ENTRIES[name]() == FROZEN[name], f"{name}: certificate changed"


#: The fields a change of witnesses alone must leave as they are.
BOUND_FIELDS = ("bound", "lb1", "exact")


def _moved_fields(old: Optional[Record], new: Optional[Record]) -> List[str]:
    before, after = old or {}, new or {}
    return sorted(
        key for key in set(before) | set(after) if before.get(key) != after.get(key)
    )


def change_summary(old: Dict[str, Record], new: Dict[str, Record]) -> List[str]:
    """Report lines naming every entry that differs between two files
    and the fields that moved in it."""
    changed = sorted(
        name for name in set(old) | set(new) if old.get(name) != new.get(name)
    )
    moved = {name: _moved_fields(old.get(name), new.get(name)) for name in changed}
    lines = [f"{len(changed)} of {len(new)} entries changed:"]
    lines += [f"  {name}: {', '.join(moved[name])}" for name in changed]
    bound_moved = [
        name for name in changed if any(key in BOUND_FIELDS for key in moved[name])
    ]
    lines.append(f"{len(bound_moved)} entries changed bound, lb1 or exact:")
    for name in bound_moved:
        before = {key: (old.get(name) or {}).get(key) for key in BOUND_FIELDS}
        after = {key: (new.get(name) or {}).get(key) for key in BOUND_FIELDS}
        lines.append(f"  {name}: {before} -> {after}")
    return lines


def test_change_summary_separates_bound_changes():
    lb1 = {"node": "'a'", "degree": 4, "capacity": 2, "bound": 2}
    lb2 = {"nodes": ["'a'", "'b'"], "internal_edges": 3, "capacity_sum": 3,
           "bound": 3}
    old = {
        "a/exact": {"bound": 2, "exact": True, "lb1": lb1, "lb2": lb2},
        "b/exact": {"bound": 3, "exact": True, "lb1": lb1, "lb2": lb2},
        "c/heuristic": {"bound": 2, "exact": False, "lb1": lb1, "lb2": None},
    }
    new = {
        "a/exact": {"bound": 2, "exact": True, "lb1": lb1, "lb2": None},
        "b/exact": {"bound": 2, "exact": True, "lb1": lb1, "lb2": None},
        "c/heuristic": {"bound": 2, "exact": False, "lb1": lb1, "lb2": None},
    }
    assert change_summary(old, new) == [
        "2 of 3 entries changed:",
        "  a/exact: lb2",
        "  b/exact: bound, lb2",
        "1 entries changed bound, lb1 or exact:",
        f"  b/exact: {{'bound': 3, 'lb1': {lb1}, 'exact': True}} -> "
        f"{{'bound': 2, 'lb1': {lb1}, 'exact': True}}",
    ]


def main() -> None:
    records = {name: compute() for name, compute in ENTRIES.items()}
    print("\n".join(change_summary(FROZEN, records)))
    with open(CERTIFICATES_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} entries to {CERTIFICATES_PATH}")


if __name__ == "__main__":
    main()
