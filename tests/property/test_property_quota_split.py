"""The Euler-partition split kernel (hypothesis plus fixed edge shapes).

:meth:`QuotaPeeler.split` partitions a bipartite multigraph whose
degrees are ``q_v·D`` into ``D`` exact-quota parts: Theorem 4.1's step
4 with ``q_v = c_v/2`` and the König colorer with unit quotas.  The
claims pinned here:

* on random unions of ``D`` exact-quota parts, every returned part has
  exactly ``q_v`` edges at every node, the parts partition the edges,
  and there are ``D`` of them;
* with some of those edges handed over as padding counts (arbitrary
  ``(l, r)`` pairs, or only ``(v, v)`` pairs under equal quotas), the
  parts partition the remaining real edges, no part exceeds a quota,
  each node's shortfalls over the parts add up to its padding, and
  under ``(v, v)`` padding every part's real out- and in-degrees agree;
* against the paper's literal step 4 (one max-flow peel per round, kept
  below as an oracle with its own augmentation, each peel's flow value
  checked by the Edmonds–Karp oracle, with the augmentation as edges
  or as padding counts), the schedules validate with ``Δ'`` rounds on
  the even-instance families;
* edge shapes — isolated nodes, augmentation made only of self-loops,
  ``Δ' = 1``, an ``H`` with several components — keep the kernel's
  schedule valid and optimal;
* a degree that is not ``q_v·D`` raises :class:`SolverError`.
"""

from collections import Counter
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.certify import verify_schedule
from repro.core.errors import SolverError
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lower_instance
from repro.graphs.matching import QuotaPeeler
from repro.graphs.multigraph import Multigraph, Node
from repro.workloads.generators import (
    hotspot_instance,
    multi_component_instance,
    random_instance,
    regular_instance,
)
from tests.conftest import euler_orientation, even_instance
from tests.flow_oracle import assert_peel_agrees

#: 1, 2, powers of two, 2^k ± 1 and primes up to 40.
PART_COUNTS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 16, 17, 23, 31, 32, 33, 37, 40)


@st.composite
def quota_problems(draw):
    """``(left_quota, right_quota, edges, D)``: the shuffled union of
    ``D`` random exact-quota parts, quotas in {1, 2, 3}."""
    parts = draw(st.sampled_from(PART_COUNTS))
    left = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    right = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    while sum(left) != sum(right):
        short = left if sum(left) < sum(right) else right
        short.append(min(3, abs(sum(left) - sum(right))))
    rng = draw(st.randoms(use_true_random=False))
    left_stubs = [u for u, q in enumerate(left) for _ in range(q)]
    edges: List[Tuple[int, int]] = []
    for _ in range(parts):
        right_stubs = [v for v, q in enumerate(right) for _ in range(q)]
        rng.shuffle(right_stubs)
        edges += zip(left_stubs, right_stubs)
    rng.shuffle(edges)
    return left, right, edges, parts


class TestPartitionProperty:
    @given(quota_problems())
    @settings(deadline=None, max_examples=80)
    def test_parts_are_exact_and_partition_the_edges(self, problem):
        left, right, edges, parts = problem
        split = QuotaPeeler.split(
            left, right, [u for u, _ in edges], [v for _, v in edges], parts
        )
        assert len(split) == parts
        assert sorted(k for part in split for k in part) == list(range(len(edges)))
        for part in split:
            assert part == sorted(part)
            assert Counter(edges[k][0] for k in part) == Counter(dict(enumerate(left)))
            assert Counter(edges[k][1] for k in part) == Counter(dict(enumerate(right)))


@st.composite
def padded_quota_problems(draw, loops_only=False):
    """``(left_quota, right_quota, edges, D, pads)``: a union of ``D``
    exact-quota parts with a random subset of its edges turned into
    padding counts.  With ``loops_only`` the quotas are equal and only
    ``(v, v)`` edges become padding; each part then holds a random
    number of them at every node."""
    parts = draw(st.sampled_from(PART_COUNTS))
    left = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    if loops_only:
        right = list(left)
    else:
        right = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
        while sum(left) != sum(right):
            short = left if sum(left) < sum(right) else right
            short.append(min(3, abs(sum(left) - sum(right))))
    rng = draw(st.randoms(use_true_random=False))
    share = draw(st.sampled_from((0.2, 0.5, 0.9, 1.0)))
    edges: List[Tuple[int, int]] = []
    for _ in range(parts):
        loops = [0] * len(left + right)
        if loops_only:
            loops = [rng.randint(0, q) for q in left]
        edges += [(v, v) for v, k in enumerate(loops) for _ in range(k)]
        left_stubs = [u for u, q in enumerate(left) for _ in range(q - loops[u])]
        right_stubs = [v for v, q in enumerate(right) for _ in range(q - loops[v])]
        rng.shuffle(right_stubs)
        edges += zip(left_stubs, right_stubs)
    rng.shuffle(edges)
    real: List[Tuple[int, int]] = []
    pads: Dict[Tuple[int, int], int] = {}
    for l, r in edges:
        if (l == r or not loops_only) and rng.random() < share:
            pads[l, r] = pads.get((l, r), 0) + 1
        else:
            real.append((l, r))
    return left, right, real, parts, pads


def assert_padded_split(left, right, edges, parts, pads):
    """``split`` with padding: ``D`` parts partitioning the real edges,
    no quota exceeded, each node's shortfall over the parts equal to
    its padding; returns the parts."""
    split = QuotaPeeler.split(
        left, right, [u for u, _ in edges], [v for _, v in edges], parts, pads
    )
    assert len(split) == parts
    assert sorted(k for part in split for k in part) == list(range(len(edges)))
    short_left: Counter = Counter()
    short_right: Counter = Counter()
    for part in split:
        assert part == sorted(part)
        out_deg = Counter(edges[k][0] for k in part)
        in_deg = Counter(edges[k][1] for k in part)
        for u, q in enumerate(left):
            assert out_deg[u] <= q
            short_left[u] += q - out_deg[u]
        for v, q in enumerate(right):
            assert in_deg[v] <= q
            short_right[v] += q - in_deg[v]
    pad_left: Counter = Counter()
    pad_right: Counter = Counter()
    for (u, v), c in pads.items():
        pad_left[u] += c
        pad_right[v] += c
    assert +short_left == +pad_left
    assert +short_right == +pad_right
    return split


class TestPaddedPartitionProperty:
    @given(padded_quota_problems())
    @settings(deadline=None, max_examples=80)
    def test_pairs_as_counts(self, problem):
        assert_padded_split(*problem)

    @given(padded_quota_problems(loops_only=True))
    @settings(deadline=None, max_examples=80)
    def test_loops_as_counts_balance_every_part(self, problem):
        left, _right, edges, _parts, _pads = problem
        for part in assert_padded_split(*problem):
            out_deg = Counter(edges[k][0] for k in part)
            in_deg = Counter(edges[k][1] for k in part)
            assert all(out_deg[v] == in_deg[v] for v in range(len(left)))

    def test_all_padding(self):
        """Nothing but padding: ``D`` empty parts."""
        pads = {(0, 0): 3, (1, 0): 3, (1, 1): 3}
        assert QuotaPeeler.split([1, 2], [2, 1], [], [], 3, pads) == [[]] * 3

    def test_wrong_padding_raises(self):
        with pytest.raises(SolverError, match="left node 0 has degree 3"):
            QuotaPeeler.split([1], [1], [0], [0], 2, {(0, 0): 2})


def augment_to_regular(
    instance: MigrationInstance, delta_prime: int
) -> Tuple[Multigraph, Set[int]]:
    """Theorem 4.1's step 1 on the object graph: make ``deg(v) = c_v·Δ'``.

    Returns the augmented graph and the set of original edge ids.
    ``c_v·Δ'`` is even (``c_v`` even), and self-loops change degree by
    2, so after looping each node sits at its target or one below; the
    one-below nodes are exactly those with odd original degree, whose
    count is even, so they can be paired with dummy edges.
    """
    work = instance.graph.copy()
    real_edges = set(work.edge_ids())
    deficient: List[Node] = []
    for v in work.nodes:
        target = instance.capacity(v) * delta_prime
        assert work.degree(v) <= target
        while work.degree(v) <= target - 2:
            work.add_edge(v, v)
        if work.degree(v) == target - 1:
            deficient.append(v)
    assert len(deficient) % 2 == 0
    for i in range(0, len(deficient), 2):
        work.add_edge(deficient[i], deficient[i + 1])
    return work, real_edges


def paper_step4_schedule(
    instance: MigrationInstance, padded: bool = False
) -> MigrationSchedule:
    """Theorem 4.1 with the paper's literal step 4: ``Δ'`` max-flow
    peels, each extracting one exact ``c_v/2`` subgraph from what is
    left.  Each peel must be feasible: the flow oracle's max-flow value
    for its network equals its demand.  With ``padded``, the oriented
    augmentation edges are padding counts per ``(tail, head)`` pair
    instead of edges, and each peel's pad flows come off the counts."""
    delta_prime = instance.delta_prime()
    if instance.num_items == 0:
        return MigrationSchedule([], method="even_optimal")
    work, real_edges = augment_to_regular(instance, delta_prime)
    orientation = euler_orientation(work)

    index = {v: i for i, v in enumerate(work.nodes)}
    bip_edges = [(index[tail], index[head]) for tail, head in orientation.values()]
    bip_eids = list(orientation)
    quota = [instance.capacity(v) // 2 for v in work.nodes]

    remaining = list(range(len(bip_edges)))
    pads: Dict[Tuple[int, int], int] = {}
    if padded:
        for i in remaining:
            if bip_eids[i] not in real_edges:
                pads[bip_edges[i]] = pads.get(bip_edges[i], 0) + 1
        remaining = [i for i in remaining if bip_eids[i] in real_edges]
    rounds = []
    for step in range(delta_prime):
        edges = [bip_edges[i] for i in remaining]
        picked = assert_peel_agrees(quota, quota, edges, pads)
        assert picked is not None, f"peel {step}/{delta_prime} infeasible"
        if pads:
            peeler = QuotaPeeler(
                quota, quota, [u for u, _ in edges], [v for _, v in edges], pads
            )
            assert peeler.peel() == picked
            pads = {
                pair: c - f
                for (pair, c), f in zip(pads.items(), peeler.pad_flows())
            }
        picked_global = {remaining[i] for i in picked}
        rounds.append(
            [bip_eids[i] for i in sorted(picked_global) if bip_eids[i] in real_edges]
        )
        remaining = [i for i in remaining if i not in picked_global]
    assert not remaining, f"{len(remaining)} augmented edges left after Δ' peels"
    assert not any(pads.values()), "padding left after Δ' peels"
    return MigrationSchedule(rounds, method="even_optimal")


EVEN_FAMILIES = [
    ("conftest-even", lambda s: even_instance(8, 30 + 10 * s, (2, 4, 6), seed=s)),
    ("random-2-4", lambda s: random_instance(10, 60, capacities={2: 0.6, 4: 0.4}, seed=s)),
    ("regular", lambda s: regular_instance(12, 6, capacity=2, seed=s)),
    ("hotspot", lambda s: hotspot_instance(10, 2, 50, seed=s, hot_capacity=4,
                                           cold_capacity=2)),
]


class TestPaperOracle:
    @pytest.mark.parametrize("family", [name for name, _ in EVEN_FAMILIES])
    @pytest.mark.parametrize("seed", range(3))
    def test_split_and_paper_peels_both_reach_delta_prime(self, family, seed):
        instance = dict(EVEN_FAMILIES)[family](seed)
        assert instance.all_even()
        for schedule in (paper_step4_schedule(instance),
                         paper_step4_schedule(instance, padded=True),
                         even_optimal_schedule_compact(lower_instance(instance))):
            schedule.validate(instance)
            assert schedule.num_rounds == instance.delta_prime()


def assert_split_schedule_optimal(instance: MigrationInstance) -> None:
    schedule = even_optimal_schedule_compact(lower_instance(instance))
    assert verify_schedule(instance, schedule.rounds) == instance.delta_prime()
    assert schedule.num_rounds == instance.delta_prime()


class TestEdgeShapes:
    def test_isolated_nodes(self):
        g = Multigraph(nodes=["a", "lonely", "b", "c", "idle"])
        for u, v in [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b")]:
            g.add_edge(u, v)
        caps = {"a": 2, "lonely": 4, "b": 2, "c": 2, "idle": 2}
        assert_split_schedule_optimal(MigrationInstance(g, caps))

    def test_augmentation_only_self_loops(self):
        # Every deficiency is even, so step 1 adds loops and no pairing
        # edge: Δ' = 2, and a and c sit at degree 4 of c_v·Δ' = 8.
        instance = MigrationInstance.from_moves(
            [("a", "b"), ("b", "c"), ("a", "c")] * 2, {"a": 4, "b": 2, "c": 4}
        )
        work, real = augment_to_regular(instance, instance.delta_prime())
        added = [(u, v) for eid, u, v in work.edges() if eid not in real]
        assert added and all(u == v for u, v in added)
        assert_split_schedule_optimal(instance)

    def test_delta_prime_one(self):
        instance = MigrationInstance.from_moves(
            [("a", "b"), ("c", "d"), ("a", "c")], {"a": 2, "b": 2, "c": 4, "d": 2}
        )
        assert instance.delta_prime() == 1
        assert_split_schedule_optimal(instance)

    def test_several_components(self):
        instance = multi_component_instance(
            3, disks_per_component=5, items_per_component=20, seed=4
        )
        instance = MigrationInstance(
            instance.graph, {v: 2 * c for v, c in instance.capacities.items()}
        )
        assert len(instance.graph.connected_components()) == 3
        assert_split_schedule_optimal(instance)

    def test_no_parts_no_edges(self):
        assert QuotaPeeler.split([1], [1], [], [], 0) == []


class TestPrecondition:
    def test_compact_rejects_wrong_degree(self):
        # Left node 0 has degree 3, not 1·2.
        with pytest.raises(SolverError, match="degree 3"):
            QuotaPeeler.split([1, 1], [1, 1], [0, 0, 0, 1], [0, 1, 1, 0], 2)
