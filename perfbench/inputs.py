"""Seeded input generators: instances, delta chains and request scripts.

Everything a workload feeds the program is a pure function of the
``--seed`` argument (and the run length), built here from
:class:`random.Random` and plain ``(src, dst)`` move lists.  The
program only ever receives the generated instances, deltas and
request bodies, so a later change to ``repro.workloads`` cannot move
the benchmark's inputs.

Disk names are zero-padded strings, so ``repr`` order equals numeric
order and every instance is tokenizable (the plan cache and the delta
planner need unambiguous node reprs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Move = Tuple[str, str]


@dataclass(frozen=True)
class Spec:
    """A seeded instance: directed moves plus per-disk capacities."""

    label: str
    moves: Tuple[Move, ...]
    capacities: Dict[str, int]


def _rng(seed: int, *salt: object) -> random.Random:
    """An independent stream per (seed, purpose): streams never shift
    when another purpose draws more or fewer numbers."""
    return random.Random(repr((seed,) + salt))


def _pair(rng: random.Random, nodes: Sequence[str]) -> Move:
    i = rng.randrange(len(nodes))
    j = rng.randrange(len(nodes) - 1)
    if j >= i:
        j += 1
    return nodes[i], nodes[j]


def random_instance(
    seed: int, label: str, disks: int, items: int, caps: Sequence[int]
) -> Spec:
    """``items`` uniform random moves over ``disks`` disks, spanning
    path first so the instance is one component."""
    rng = _rng(seed, label)
    nodes = [f"{label}.d{i:04d}" for i in range(disks)]
    moves: List[Move] = list(zip(nodes, nodes[1:]))
    while len(moves) < items:
        moves.append(_pair(rng, nodes))
    capacities = {v: rng.choice(caps) for v in nodes}
    return Spec(label, tuple(moves), capacities)


def regular_instance(seed: int, label: str, disks: int, degree: int, cap: int) -> Spec:
    """A ``degree``-regular multigraph: the union of ``degree`` random
    perfect matchings (``disks`` must be even), every disk at ``cap``."""
    rng = _rng(seed, label)
    nodes = [f"{label}.d{i:04d}" for i in range(disks)]
    moves: List[Move] = []
    for _ in range(degree):
        order = nodes[:]
        rng.shuffle(order)
        for k in range(0, disks, 2):
            moves.append((order[k], order[k + 1]))
    return Spec(label, tuple(moves), {v: cap for v in nodes})


def fleet_instance(
    seed: int,
    label: str,
    racks: int,
    disks: Tuple[int, int],
    items: Tuple[int, int],
    caps: Sequence[int],
    odd_cycles: int = 0,
) -> Spec:
    """Rack-confined moves: ``racks`` components of a seeded size in
    ``disks`` (inclusive) carrying a seeded item count in ``items``,
    plus ``odd_cycles`` unit-capacity odd cycles with every pair
    repeated (alternately 5 disks x 4 and 7 disks x 3 moves per pair).

    Those cycles are more than 16 items, so the general solver (not the
    exact one) takes them, and at their lower bound the solver's
    Phase 1 stalls: each one grows the palette and hands a residue to
    Phase 2.
    """
    rng = _rng(seed, label)
    moves: List[Move] = []
    capacities: Dict[str, int] = {}
    for r in range(racks):
        n = rng.randint(*disks)
        nodes = [f"{label}.r{r:03d}.d{i:02d}" for i in range(n)]
        moves.extend(zip(nodes, nodes[1:]))
        for _ in range(rng.randint(*items) - (n - 1)):
            moves.append(_pair(rng, nodes))
        for v in nodes:
            capacities[v] = rng.choice(caps)
    for k in range(odd_cycles):
        n, repeat = ((5, 4), (7, 3))[k % 2]
        nodes = [f"{label}.o{k:02d}.d{i:02d}" for i in range(n)]
        for i in range(n):
            moves.extend([(nodes[i], nodes[(i + 1) % n])] * repeat)
        for v in nodes:
            capacities[v] = 1
    return Spec(label, tuple(moves), capacities)


@dataclass(frozen=True)
class Tick:
    """One seeded edit of the ledger: the delta's fields plus the
    directed moves it takes away and brings."""

    removes: Tuple[Move, ...]
    retargets: Tuple[Tuple[str, str, str], ...]
    adds: Tuple[Move, ...]
    capacities: Tuple[Tuple[str, int], ...]

    @property
    def removed(self) -> List[Move]:
        return list(self.removes) + [(s, o) for s, o, _n in self.retargets]

    @property
    def added(self) -> List[Move]:
        return [(s, n) for s, _o, n in self.retargets] + list(self.adds)


#: each tick edits about this share of the moves ...
TICK_SHARE = 0.01
#: ... inside this many random racks ...
DIRTY_RACKS = 3
#: ... and every fourth tick moves one disk to another of these capacities.
TICK_CAPS = (1, 2, 3)


def delta_chain(seed: int, spec: Spec, ticks: int) -> List[Tick]:
    """``ticks`` edits of ``spec``'s rack fleet, each touching about
    :data:`TICK_SHARE` of the moves inside :data:`DIRTY_RACKS` random
    racks: a third removes, a third retargets (same source, new
    destination in the rack), a third adds, and every fourth tick one
    capacity change.

    The ledger is the benchmark's own record of directed moves; each
    tick draws its removes and retargets from it, never from the
    program's state, so the chain is a function of the seed alone.
    """
    rng = _rng(seed, spec.label, "chain")
    racks: Dict[str, List[str]] = {}
    for v in sorted(spec.capacities):
        racks.setdefault(v.rsplit(".", 1)[0], []).append(v)
    names = sorted(racks)
    ledger: Dict[str, List[Move]] = {r: [] for r in names}
    for u, v in spec.moves:
        ledger[u.rsplit(".", 1)[0]].append((u, v))
    capacities = dict(spec.capacities)
    chain: List[Tick] = []
    for t in range(ticks):
        total = sum(len(moves) for moves in ledger.values())
        each = max(1, round(total * TICK_SHARE) // 3)
        chosen = rng.sample(names, min(DIRTY_RACKS, len(names)))
        pool = [(r, i) for r in chosen for i in range(len(ledger[r]))]
        rng.shuffle(pool)
        taken = pool[: 2 * each]
        removes = [ledger[r][i] for r, i in taken[:each]]
        retargets = []
        for r, i in taken[each:]:
            src, old = ledger[r][i]
            targets = [v for v in racks[r] if v not in (src, old)]
            retargets.append((src, old, rng.choice(targets)))
        adds = [_pair(rng, racks[rng.choice(chosen)]) for _ in range(each)]
        changes: List[Tuple[str, int]] = []
        if t % 4 == 3:
            v = rng.choice(racks[chosen[0]])
            c = rng.choice([c for c in TICK_CAPS if c != capacities[v]])
            capacities[v] = c
            changes.append((v, c))
        gone = {(r, i) for r, i in taken}
        for r in chosen:
            ledger[r] = [m for i, m in enumerate(ledger[r]) if (r, i) not in gone]
        tick = Tick(tuple(removes), tuple(retargets), tuple(adds), tuple(changes))
        for u, v in tick.added:
            ledger[u.rsplit(".", 1)[0]].append((u, v))
        chain.append(tick)
    return chain


#: a request script is made of blocks of this many requests ...
BLOCK = 10
#: ... of which this many are Zipf-popular hot picks ...
HOT_PER_BLOCK = 7
#: ... with this Zipf exponent.
ZIPF_S = 1.1


def request_script(seed: int, requests: int, hot: int) -> List[Tuple[str, bool]]:
    """``requests`` (instance key, certify) pairs in blocks of
    :data:`BLOCK`: :data:`HOT_PER_BLOCK` Zipf-popular picks from ``hot``
    hot instances, the rest never-seen instances cycling through three
    sizes; half of each block goes to ``/v1/certify``.

    Fixed per-block proportions keep the cost mix, and so throughput,
    the same across seeds; only which instances appear varies."""
    rng = _rng(seed, "script")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(hot)]
    script: List[Tuple[str, bool]] = []
    fresh = 0
    while len(script) < requests:
        keys = [f"hot{k:02d}" for k in rng.choices(range(hot), weights, k=HOT_PER_BLOCK)]
        for _ in range(BLOCK - HOT_PER_BLOCK):
            keys.append(f"new{fresh:04d}")
            fresh += 1
        certify = [i < BLOCK // 2 for i in range(BLOCK)]
        rng.shuffle(keys)
        rng.shuffle(certify)
        script.extend(zip(keys, certify))
    return script[:requests]


#: never-seen request sizes (disks, items), cycled by ``new`` index:
#: exact_bb, general + exhaustive LB2, general + heuristic LB2.
NEW_SIZES = ((6, 14), (12, 80), (40, 400))


def serve_instance(seed: int, key: str, tiny: bool) -> Spec:
    """The instance behind a request-script key.

    Hot instances have even capacities: once cached, a hit costs the
    same whatever solved it, and the cheaper first solve keeps the
    hot-set fill (part of every set-up) short."""
    if key.startswith("hot"):
        disks, items = (8, 30) if tiny else (12, 80)
        caps: Sequence[int] = (2, 4)
    else:
        disks, items = NEW_SIZES[int(key[3:]) % len(NEW_SIZES)]
        if tiny:
            disks, items = min(disks, 10), min(items, 40)
        caps = (1, 2, 3)
    return random_instance(seed, key, disks, items, caps)
