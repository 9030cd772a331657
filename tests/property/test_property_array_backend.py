"""Property-based tests for the array backend (hypothesis).

Two claims, attacked with randomized structure instead of fixed cases:

* the CSR snapshot is a *lossless* encoding — any Multigraph built by
  an arbitrary add/remove history round-trips byte-identically through
  ``CompactGraph`` (orders, ids, and the id allocator included);
* the compact kernels are *byte-identical* to their object reference —
  schedules agree exactly on arbitrary inputs, not just on the curated
  differential corpus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.general import general_schedule, general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import CompactGraph, lower_instance
from repro.graphs.multigraph import Multigraph

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


class TestRoundTripProperties:
    @given(edit_scripts)
    @settings(deadline=None, max_examples=120)
    def test_lossless(self, script):
        g = apply_script(script)
        back = CompactGraph.from_multigraph(g).to_multigraph()
        assert back.nodes == g.nodes
        assert list(back.edges()) == list(g.edges())
        assert back.next_edge_id == g.next_edge_id
        for v in g.nodes:
            assert back.incident_edges(v) == g.incident_edges(v)
            assert back.degree(v) == g.degree(v)

    @given(edit_scripts)
    @settings(deadline=None, max_examples=60)
    def test_future_ids_continue_identically(self, script):
        g = apply_script(script)
        back = CompactGraph.from_multigraph(g).to_multigraph()
        assert back.add_edge(0, 1) == g.add_edge(0, 1)


class TestKernelEquivalenceProperties:
    @given(simple_edge_lists, st.lists(st.integers(1, 4), min_size=6, max_size=6),
           st.integers(0, 2))
    @settings(deadline=None, max_examples=50)
    def test_general_schedule_identical(self, edges, caps, seed):
        g = Multigraph(nodes=range(6))
        for u, v in edges:
            g.add_edge(u, v)
        instance = MigrationInstance(g, dict(enumerate(caps)))
        obj = general_schedule(instance, seed=seed)
        arr = general_schedule_compact(lower_instance(instance), seed=seed)
        assert obj.rounds == arr.rounds
        assert obj.method == arr.method
