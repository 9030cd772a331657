"""The cold certified path's per-edge passes against their loop oracles.

Each live pass must equal its plain-loop form in
:mod:`tests.pass_oracles` byte for byte: the same lists in the same
order, the same dict insertion order, the same digests and the same
error messages.  Hypothesis draws the inputs, with the shapes the
passes meet in planning — zero quotas and isolated nodes, the
Theorem 4.1 augmentation's self-loops and pairing edges, edge ids that
do not ascend in table order, node reprs with quotes, backslashes and
non-ASCII characters — and the fixed cases below name every violation
kind of the two schedule checks with its exact message.

Nothing here may depend on hash order: CI runs this file under two
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.certify import CertificationError, verify_schedule
from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import CompactGraph
from repro.graphs.euler import (
    NotEulerianError,
    compact_euler_circuits,
    compact_euler_orientation,
)
from repro.graphs.matching import (
    InfeasibleMatchingError,
    QuotaPeeler,
    _alternate_trails,
)
from repro.graphs.multigraph import Multigraph
from repro.pipeline.canonical import _canonical_form, canonical_order
from tests import pass_oracles


def outcome(fn, *args):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exact type and text are compared
        return type(exc), str(exc)


# ----------------------------------------------------------------------
# trail halving
# ----------------------------------------------------------------------

@st.composite
def even_bipartite(draw):
    """``(part, lo, hi, num_nodes)``: a union of closed walks that
    alternate sides, so every degree is even; its edges in shuffled
    order among indices of edges outside ``part``, with isolated
    nodes on both sides."""
    num_left = draw(st.integers(1, 6))
    num_right = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    ends: List[Tuple[int, int]] = []
    for _walk in range(draw(st.integers(0, 6))):
        length = draw(st.integers(1, 8))
        lefts = [rng.randrange(num_left) for _ in range(length)]
        rights = [rng.randrange(num_right) for _ in range(length)]
        for i in range(length):
            ends.append((lefts[i], rights[i]))
            ends.append((lefts[(i + 1) % length], rights[i]))
    outside = draw(st.integers(0, 5))
    ends += [(rng.randrange(num_left), rng.randrange(num_right)) for _ in range(outside)]
    index = list(range(len(ends)))
    rng.shuffle(index)
    lo = [0] * len(ends)
    hi = [0] * len(ends)
    for k, (u, v) in zip(index, ends):
        lo[k] = u
        hi[k] = num_left + v
    part = index[: len(ends) - outside]
    return part, lo, hi, num_left + num_right


class TestAlternateTrails:
    @settings(deadline=None, max_examples=150)
    @given(even_bipartite())
    def test_equals_oracle(self, args):
        assert _alternate_trails(*args) == pass_oracles.alternate_trails(*args)

    def test_ascending_part(self):
        lo = [0, 1, 0, 1]
        hi = [2, 2, 3, 3]
        args = ([0, 1, 2, 3], lo, hi, 4)
        assert _alternate_trails(*args) == pass_oracles.alternate_trails(*args)


# ----------------------------------------------------------------------
# Euler walk
# ----------------------------------------------------------------------

@st.composite
def euler_rows(draw):
    """CSR rows of a multigraph with even degrees, shaped like an
    augmentation: random edges in shuffled row order, then each node's
    self-loops (the Theorem 4.1 kernel keeps its loops as padding
    counts, but the walk takes loops), then one pairing edge per odd
    node; some nodes isolated."""
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(draw(st.integers(0, 25)))]
    ends = [(u, v) for u, v in ends if u != v]
    ids = list(range(len(ends)))
    rng.shuffle(ids)  # edge indices need not follow row order
    rows: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    degree = [0] * n
    for e, (u, v) in zip(ids, ends):
        rows[u].append((e, v))
        rows[v].append((e, u))
        degree[u] += 1
        degree[v] += 1
    for row in rows:
        rng.shuffle(row)
    next_edge = len(ends)
    for v in range(n):
        for _ in range(draw(st.integers(0, 2))):
            rows[v].append((next_edge, v))
            degree[v] += 2
            next_edge += 1
    odd = [v for v in range(n) if degree[v] % 2]
    for a, b in zip(odd[::2], odd[1::2]):
        rows[a].append((next_edge, b))
        rows[b].append((next_edge, a))
        degree[a] += 1
        degree[b] += 1
        next_edge += 1
    indptr = [0]
    inc_edge: List[int] = []
    inc_other: List[int] = []
    for row in rows:
        inc_edge += [e for e, _ in row]
        inc_other += [w for _, w in row]
        indptr.append(len(inc_edge))
    return indptr, inc_edge, inc_other, degree, next_edge


class TestEulerWalk:
    @settings(deadline=None, max_examples=150)
    @given(euler_rows())
    def test_orientation_equals_oracle(self, rows):
        assert compact_euler_orientation(*rows) == pass_oracles.euler_orientation(*rows)

    @settings(deadline=None, max_examples=150)
    @given(euler_rows())
    def test_circuits_equal_oracle(self, rows):
        assert compact_euler_circuits(*rows) == pass_oracles.euler_circuits(*rows)

    def test_odd_degree_message(self):
        rows = ([0, 1, 2, 2], [0, 0], [1, 0], [1, 1, 0], 1)
        live = outcome(compact_euler_orientation, *rows)
        assert live == outcome(pass_oracles.euler_orientation, *rows)
        assert live == (NotEulerianError, "node index 0 has odd degree 1")


# ----------------------------------------------------------------------
# the peeler network
# ----------------------------------------------------------------------

@st.composite
def quota_networks(draw):
    """Quotas with zeros (equal totals), edges and padding pairs (none,
    empty or a few, keys in drawn order), some nodes isolated."""
    left = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    right = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    gap = sum(left) - sum(right)
    if gap > 0:
        right.append(gap)
    elif gap < 0:
        left.append(-gap)
    m = draw(st.integers(0, 20))
    edge_left = draw(st.lists(st.integers(0, len(left) - 1), min_size=m, max_size=m))
    edge_right = draw(st.lists(st.integers(0, len(right) - 1), min_size=m, max_size=m))
    pads = draw(st.one_of(st.none(), st.dictionaries(
        st.tuples(st.integers(0, len(left) - 1), st.integers(0, len(right) - 1)),
        st.integers(1, 4),
        max_size=6,
    )))
    return left, right, edge_left, edge_right, pads


class TestPeelerNetwork:
    @settings(deadline=None, max_examples=150)
    @given(quota_networks())
    def test_arrays_equal_oracle(self, args):
        peeler = QuotaPeeler(*args)
        expected = pass_oracles.peeler_network(*args)
        assert (peeler._to, peeler._cap, peeler._adj) == expected
        assert peeler._unit_base == 2 * (len(args[0]) + len(args[1]))
        assert peeler._pad_base == peeler._unit_base + 2 * len(args[2])

    def test_unequal_totals_message(self):
        with pytest.raises(
            InfeasibleMatchingError, match=r"^total left quota 2 != total right quota 1$"
        ):
            QuotaPeeler([1, 1], [1], [0], [0])


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------

@st.composite
def multigraphs(draw):
    """Multigraphs with self-loops, isolated nodes, id holes and ids
    that do not ascend in table order."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 7))
    graph = Multigraph(nodes=range(n))
    for _ in range(draw(st.integers(0, 25))):
        graph.add_edge(rng.randrange(n), rng.randrange(n))
    for eid in rng.sample(graph.edge_ids(), draw(st.integers(0, graph.num_edges))):
        graph.remove_edge(eid)
    if draw(st.booleans()):
        ids = graph.edge_ids()
        rng.shuffle(ids)
        graph = graph.edge_subgraph(ids)
    return graph


class TestLowering:
    @settings(deadline=None, max_examples=150)
    @given(multigraphs())
    def test_arrays_equal_oracle(self, graph):
        compact = CompactGraph.from_multigraph(graph)
        expected = pass_oracles.csr_arrays(graph)
        assert {name: getattr(compact, name) for name in expected} == expected
        assert list(compact.edge_index_of) == list(expected["edge_index_of"])


# ----------------------------------------------------------------------
# the canonical form
# ----------------------------------------------------------------------

class Tagged:
    """A node whose repr is its tag: equal tags make reprs ambiguous."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __repr__(self) -> str:
        return self.tag


NAMES = st.text(
    alphabet=st.sampled_from(list("ab'\"\\ é☃ \x00z")), min_size=0, max_size=4
)


@st.composite
def canonical_instances(draw):
    """Instances over string nodes with awkward reprs (or, sometimes,
    nodes sharing a repr), edge ids that need not ascend in table
    order, and capacities that include ``True`` (an ``int``)."""
    ambiguous = draw(st.booleans())
    if ambiguous:
        tags = draw(st.lists(st.sampled_from(["x", "y", "'q'"]), min_size=2, max_size=5))
        nodes: list = [Tagged(tag) for tag in tags]
    else:
        nodes = draw(st.lists(NAMES, min_size=2, max_size=6, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    graph = Multigraph(nodes=nodes)
    for _ in range(draw(st.integers(0, 25))):
        u, v = rng.sample(range(len(nodes)), 2)
        graph.add_edge(nodes[u], nodes[v])
    for eid in rng.sample(graph.edge_ids(), draw(st.integers(0, graph.num_edges))):
        graph.remove_edge(eid)  # holes in the ids
    if draw(st.booleans()):
        ids = graph.edge_ids()
        rng.shuffle(ids)
        graph = graph.edge_subgraph(ids)
        for v in nodes:
            graph.add_node(v)
    caps = {v: draw(st.sampled_from([1, 2, 3, 7, True])) for v in nodes}
    return MigrationInstance(graph, caps)


class TestCanonicalForm:
    @settings(deadline=None, max_examples=200)
    @given(canonical_instances())
    def test_equals_oracle(self, instance):
        fp, token_of = _canonical_form(instance)
        ref_fp, ref_tokens = pass_oracles.canonical_form(instance)
        assert fp == ref_fp
        assert list(token_of.items()) == list(ref_tokens.items())

    def test_escapes(self):
        nodes = ["q'uote", 'dq"', "back\\slash", "naïve", "☃"]
        graph = Multigraph(nodes=nodes)
        for i, u in enumerate(nodes):
            graph.add_edge(u, nodes[(i + 1) % len(nodes)])
            graph.add_edge(u, nodes[(i + 2) % len(nodes)])
        instance = MigrationInstance(graph, {v: 2 for v in nodes})
        assert _canonical_form(instance) == pass_oracles.canonical_form(instance)


@st.composite
def instance_rounds(draw):
    """``(instance, rounds)``: a canonical-form instance's edges, or some
    of them, dealt in a shuffled order into rounds that may stay empty,
    and now and then an id the instance lacks."""
    instance = draw(canonical_instances())
    rng = draw(st.randoms(use_true_random=False))
    ids = instance.graph.edge_ids()
    rng.shuffle(ids)
    if draw(st.booleans()):
        ids = ids[: draw(st.integers(0, len(ids)))]
    if draw(st.integers(0, 9)) == 0:
        ids.insert(rng.randrange(len(ids) + 1), instance.graph.next_edge_id + 2)
    rounds: List[List[int]] = [[] for _ in range(draw(st.integers(1, 6)))]
    for eid in ids:
        rng.choice(rounds).append(eid)
    return instance, rounds


class TestCanonicalOrder:
    """``canonical_order`` against the token round trip it replaced."""

    @settings(deadline=None, max_examples=200)
    @given(instance_rounds())
    def test_equals_round_trip(self, args):
        instance, rounds = args
        live = outcome(canonical_order, instance, rounds)
        assert live == outcome(pass_oracles.canonical_order, instance, rounds)


# ----------------------------------------------------------------------
# validate / verify_schedule
# ----------------------------------------------------------------------

def feasible_rounds(instance: MigrationInstance, rng: random.Random) -> List[list]:
    """Rounds filled first-fit in a shuffled edge order."""
    rounds: List[list] = []
    loads: List[dict] = []
    ids = instance.graph.edge_ids()
    rng.shuffle(ids)
    for eid in ids:
        u, v = instance.graph.endpoints(eid)
        for rnd, load in zip(rounds, loads):
            if load.get(u, 0) < instance.capacity(u) and load.get(v, 0) < instance.capacity(v):
                break
        else:
            rnd, load = [], {}
            rounds.append(rnd)
            loads.append(load)
        rnd.append(eid)
        load[u] = load.get(u, 0) + 1
        load[v] = load.get(v, 0) + 1
    return rounds


@st.composite
def schedules(draw):
    """``(instance, rounds)``: a feasible schedule, then up to three
    edits drawn from every violation kind (and empty rounds)."""
    rng = draw(st.randoms(use_true_random=False))
    nodes = [f"d{i}" for i in range(draw(st.integers(2, 6)))]
    graph = Multigraph(nodes=nodes)
    for _ in range(draw(st.integers(0, 20))):
        u, v = rng.sample(nodes, 2)
        graph.add_edge(u, v)
    instance = MigrationInstance(graph, {v: rng.choice([1, 2, 3]) for v in nodes})
    rounds = feasible_rounds(instance, rng)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(["drop", "repeat", "unknown", "overload", "empty", "merge"])
        )
        flat = [eid for rnd in rounds for eid in rnd]
        if kind == "drop" and flat:
            rnd = rng.choice([r for r in rounds if r])
            rnd.remove(rng.choice(rnd))
        elif kind == "repeat" and flat:
            rng.choice(rounds).append(rng.choice(flat))
        elif kind == "unknown":
            rounds.insert(rng.randrange(len(rounds) + 1), [graph.next_edge_id + 3])
        elif kind == "overload" and len(rounds) > 1:
            first, second = rng.sample(range(len(rounds)), 2)
            rounds[first] += rounds[second]
            rounds[second] = []
        elif kind == "empty":
            rounds.insert(rng.randrange(len(rounds) + 1), [])
        elif kind == "merge" and rounds:
            rounds = [[eid for rnd in rounds for eid in rnd]]
    return instance, rounds


class TestScheduleChecks:
    @settings(deadline=None, max_examples=300)
    @given(schedules(), st.booleans())
    def test_validate_equals_oracle(self, args, keep_empty):
        instance, rounds = args
        schedule = MigrationSchedule(rounds, keep_empty=keep_empty)
        live = outcome(schedule.validate, instance)
        assert live == outcome(pass_oracles.validate, schedule.rounds, instance)

    @settings(deadline=None, max_examples=300)
    @given(schedules())
    def test_verify_schedule_equals_oracle(self, args):
        instance, rounds = args
        live = outcome(verify_schedule, instance, rounds)
        assert live == outcome(pass_oracles.verify_schedule, instance, rounds)


def triangle() -> MigrationInstance:
    """Edges 0 = a-b, 1 = b-c, 2 = a-c; ``a`` and ``b`` take one transfer
    per round, ``c`` two."""
    return MigrationInstance.from_moves(
        [("a", "b"), ("b", "c"), ("a", "c")], {"a": 1, "b": 1, "c": 2}
    )


#: rounds -> (validate's message, verify_schedule's message); None = valid.
VIOLATIONS = {
    "valid": ([[0], [1, 2]], None, None),
    "valid-with-empty-round": ([[0], [], [1, 2]], None, None),
    "unknown": (
        [[0], [1, 2, 9]],
        "round 1 schedules unknown edge 9",
        "unknown edge ids scheduled: [9]",
    ),
    "unknown-before-repeat": (
        [[0, 7], [0, 1, 2]],
        "round 0 schedules unknown edge 7",
        "unknown edge ids scheduled: [7]",
    ),
    "repeat": (
        [[0], [1, 2], [0]],
        "edge 0 scheduled twice (rounds 0 and 2)",
        "edges scheduled more than once: [0]",
    ),
    "repeat-before-unknown": (
        [[0, 0], [1, 2, 8]],
        "edge 0 scheduled twice (rounds 0 and 0)",
        "unknown edge ids scheduled: [8]",
    ),
    "missing": (
        [[0], [2]],
        "1 items never migrated, e.g. [1]",
        "1 edges never scheduled, e.g. [1]",
    ),
    "overload": (
        [[0, 1], [2]],
        "round 0: disk 'b' performs 2 transfers but c_v = 1",
        "round 0: disk 'b' performs 2 transfers but c_v = 1",
    ),
    "overload-first-touch": (
        [[0, 1, 2]],
        "round 0: disk 'a' performs 2 transfers but c_v = 1",
        "round 0: disk 'a' performs 2 transfers but c_v = 1",
    ),
    "overload-after-empty-round": (
        [[2], [], [0, 1]],
        # validate numbers the rounds it keeps; the certifier counts
        # the empty one.
        "round 1: disk 'b' performs 2 transfers but c_v = 1",
        "round 2: disk 'b' performs 2 transfers but c_v = 1",
    ),
}


class TestViolationMessages:
    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_validate(self, name):
        rounds, message, _certify_message = VIOLATIONS[name]
        instance = triangle()
        schedule = MigrationSchedule(rounds)
        live = outcome(schedule.validate, instance)
        assert live == outcome(pass_oracles.validate, schedule.rounds, instance)
        expected = ("ok", None) if message is None else (ScheduleValidationError, message)
        assert live == expected

    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_verify_schedule(self, name):
        rounds, _validate_message, message = VIOLATIONS[name]
        instance = triangle()
        live = outcome(verify_schedule, instance, rounds)
        assert live == outcome(pass_oracles.verify_schedule, instance, rounds)
        if message is None:
            assert live == ("ok", sum(1 for rnd in rounds if rnd))
        else:
            assert live == (CertificationError, message)

    def test_unhashable_id_after_an_unknown_one(self):
        """The scan names the unknown id before it reaches the list."""
        instance = triangle()
        schedule = MigrationSchedule([[5], [[0]]])
        live = outcome(schedule.validate, instance)
        assert live == outcome(pass_oracles.validate, schedule.rounds, instance)
        assert live == (ScheduleValidationError, "round 0 schedules unknown edge 5")

    def test_unhashable_id_first(self):
        instance = triangle()
        schedule = MigrationSchedule([[[0]], [1, 2]])
        live = outcome(schedule.validate, instance)
        assert live == outcome(pass_oracles.validate, schedule.rounds, instance)
        assert live[0] is TypeError
        rounds = [[[0]], [1, 2]]
        live = outcome(verify_schedule, instance, rounds)
        assert live == outcome(pass_oracles.verify_schedule, instance, rounds)
        assert live[0] is TypeError
