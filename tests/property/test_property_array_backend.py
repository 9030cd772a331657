"""Property-based tests for the array backend (hypothesis).

Three claims, attacked with randomized structure instead of fixed cases:

* the CSR snapshot encodes the graph it was taken from — for any
  Multigraph built by an arbitrary add/remove history, its arrays give
  the same nodes, edge ids, endpoints, per-node rows and degrees, in
  the same orders;
* the general kernel keeps Theorem 5.1's contract on arbitrary inputs:
  a valid schedule within the theorem's budget, with diagnostics that
  add up, and never below the brute-force optimum;
* the coloring state's bitmasks always say what its counts say, every
  query answers what its count definition gives, and a flip that
  fails leaves the state as it was.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checks.certify import verify_schedule
from repro.core.errors import ScheduleValidationError
from repro.core.general import GeneralSolverStats, general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState
from repro.graphs.array_backend import CompactGraph, lower_instance
from repro.graphs.multigraph import Multigraph
from tests.brute_force import brute_force_rounds

# An edit script: add edge (u, v) — self-loops included — or remove
# the i-th still-present edge.  Exercises id holes and interleavings.
edit_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("remove"), st.integers(0, 30), st.integers(0, 0)),
    ),
    max_size=40,
)

simple_edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[0] != t[1]),
    min_size=1,
    max_size=25,
)


def apply_script(script) -> Multigraph:
    g = Multigraph(nodes=range(6))
    live = []
    for op, a, b in script:
        if op == "add":
            live.append(g.add_edge(a, b))
        elif live:
            g.remove_edge(live.pop(a % len(live)))
    return g


class TestSnapshotProperties:
    @given(edit_scripts)
    @settings(deadline=None, max_examples=120)
    def test_arrays_match_object_graph(self, script):
        g = apply_script(script)
        compact = CompactGraph.from_multigraph(g)
        assert compact.nodes == g.nodes
        assert compact.edge_ids == g.edge_ids()
        assert [
            (compact.nodes[compact.edge_u[e]], compact.nodes[compact.edge_v[e]])
            for e in range(compact.num_edges)
        ] == [(u, v) for _eid, u, v in g.edges()]
        for i, v in enumerate(g.nodes):
            lo, hi = compact.indptr[i], compact.indptr[i + 1]
            row = compact.inc_edge[lo:hi]
            assert [compact.edge_ids[e] for e in row] == g.incident_edges(v)
            assert [compact.nodes[w] for w in compact.inc_other[lo:hi]] == [
                g.other_endpoint(eid, v) for eid in g.incident_edges(v)
            ]
            assert compact.degree[i] == g.degree(v)


#: A unit-capacity 5-cycle with every pair 4 times: Phase 1 stalls
#: with every color below q saturated at one endpoint of each
#: uncolored edge (no common missing color), grows the palette, and
#: sends an edge to Phase 2.
UNIT_CYCLE = [(i, (i + 1) % 5) for i in range(5) for _repeat in range(4)]
#: Node 0 carries 66 items at capacity 1: a palette of more than 64
#: colors, so the masks outgrow one machine word.
WIDE_STAR = [(0, 1 + i % 5) for i in range(66)]


class TestKernelContractProperties:
    @given(simple_edge_lists, st.lists(st.integers(1, 4), min_size=6, max_size=6),
           st.integers(0, 2))
    @example(UNIT_CYCLE, [1] * 6, 0)
    @example(UNIT_CYCLE, [1] * 6, 1)
    @example(WIDE_STAR, [1, 2, 1, 3, 1, 2], 0)
    @settings(deadline=None, max_examples=50)
    def test_general_schedule_contract(self, edges, caps, seed):
        g = Multigraph(nodes=range(6))
        for u, v in edges:
            g.add_edge(u, v)
        instance = MigrationInstance(g, dict(enumerate(caps)))
        stats = GeneralSolverStats()
        schedule = general_schedule_compact(
            lower_instance(instance), seed=seed, stats=stats
        )
        assert schedule.method == "general"
        rounds = verify_schedule(instance, schedule.rounds)
        assert stats.lower_bound <= rounds <= stats.theorem_budget()
        assert rounds <= stats.total_colors
        assert stats.phase1_colors == stats.initial_colors + stats.palette_growths
        assert stats.witnessed_growths <= stats.palette_growths
        if instance.num_items <= 10:
            assert stats.lower_bound <= brute_force_rounds(instance) <= rounds


# One step on a coloring state: an operation and three draws that pick
# its edge, node and colors.
state_steps = st.lists(
    st.tuples(
        st.sampled_from(["assign", "unassign", "flip", "try", "add_color"]),
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
    ),
    max_size=40,
)
# Small multigraphs, self-loops included (a loop takes two uses of its
# color at its node).
loopy_edge_lists = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=20
)


def check_state(arr, graph):
    """The masks equal what the counts give, and every query agrees
    with its count definition."""
    q = arr.q
    for v in range(graph.num_nodes):
        cap = arr.cap[v]
        counts = [arr.count(v, c) for c in range(q)]
        full = sum(1 << c for c, n in arr.counts[v].items() if n >= cap)
        near = -1 if cap == 1 else sum(
            1 << c for c, n in arr.counts[v].items() if n >= cap - 1
        )
        assert (arr.full[v], arr.near[v]) == (full, near)
        for c, n in enumerate(counts):
            assert arr.is_missing(v, c) == (n < cap)
            assert arr.is_saturated(v, c) == (n >= cap)
            assert arr.is_strongly_missing(v, c) == (n < cap - 1)
            assert arr.is_lightly_missing(v, c) == (n == cap - 1)
        assert arr.missing_colors(v) == [c for c, n in enumerate(counts) if n < cap]
        assert arr.strongly_missing_colors(v) == [
            c for c, n in enumerate(counts) if n < cap - 1
        ]
        for u in range(graph.num_nodes):
            # A loop takes two uses of its color at its node.
            common = [
                c for c in range(q)
                if (arr.count(u, c) < cap - 1 if u == v
                    else arr.count(u, c) < arr.cap[u] and counts[c] < cap)
            ]
            assert arr.common_missing_color(u, v) == (common[0] if common else None)
    arr.validate()


def snapshot(arr):
    """Everything a failed flip must leave as it was, orders included."""
    return (
        list(arr.color.items()),
        [dict(counts) for counts in arr.counts],
        [{c: list(slot) for c, slot in slots.items()} for slots in arr.edges_at],
        list(arr.full),
        list(arr.near),
    )


#: A flip that fails after its first step: the walk moves edge 0-1
#: from color 0 to 1, node 1 then holds three uses of color 1 at
#: capacity 2, and its only color-1 edge is a self-loop, which no walk
#: may flip.
FAILED_WALK = (
    [(0, 1), (1, 1)], [1, 2, 1, 1, 1], 2,
    [("assign", 0, 0, 0), ("assign", 1, 1, 0), ("flip", 0, 0, 1)],
)


class TestColoringMaskProperties:
    @given(loopy_edge_lists, st.lists(st.integers(1, 3), min_size=5, max_size=5),
           st.integers(1, 5), state_steps)
    @example(*FAILED_WALK)
    @settings(deadline=None, max_examples=150)
    def test_masks_follow_counts(self, edges, caps, q, steps):
        g = Multigraph(nodes=range(5))
        for u, v in edges:
            g.add_edge(u, v)
        graph = CompactGraph.from_multigraph(g)
        arr = ArrayColoringState(graph, caps, q, seed=3)
        check_state(arr, graph)
        for op, x, y, z in steps:
            if op == "assign":
                e, c = x % graph.num_edges, y % arr.q
                if e in arr.color:
                    continue
                u, v = graph.edge_u[e], graph.edge_v[e]
                fits = (
                    arr.count(u, c) + 2 <= arr.cap[u] if u == v
                    else arr.count(u, c) < arr.cap[u] and arr.count(v, c) < arr.cap[v]
                )
                if fits:
                    arr.assign(e, c)
                else:
                    with pytest.raises(ScheduleValidationError):
                        arr.assign(e, c)
            elif op == "unassign":
                if arr.color:
                    e = sorted(arr.color)[x % len(arr.color)]
                    c = arr.color[e]
                    assert arr.unassign(e) == c
                    assert e in arr.uncolored
            elif op == "flip":
                v, a, b = x % graph.num_nodes, y % arr.q, z % arr.q
                before = snapshot(arr)
                if not arr.attempt_flip(v, a, b):
                    assert snapshot(arr) == before
            elif op == "try":
                if arr.uncolored:
                    e = arr.uncolored_in_id_order()[x % len(arr.uncolored)]
                    if arr.try_color_edge(e):
                        assert e in arr.color
            else:
                assert arr.add_color() == arr.q - 1
            assert set(arr.color).isdisjoint(arr.uncolored)
            assert len(arr.color) + len(arr.uncolored) == graph.num_edges
            check_state(arr, graph)
