"""Property-based tests for the edge-coloring algorithms (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.coloring import (
    euler_split_coloring,
    kempe_coloring,
    num_colors_used,
    validate_proper_coloring,
    vizing_coloring,
)
from repro.graphs.multigraph import Multigraph
from tests.conftest import konig_coloring

edge_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda t: t[0] != t[1]),
    min_size=0,
    max_size=30,
)


def build(edges):
    g = Multigraph(nodes=range(7))
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestKempeProperties:
    @given(edge_lists, st.integers(0, 3))
    @settings(deadline=None, max_examples=60)
    def test_always_proper(self, edges, seed):
        g = build(edges)
        coloring = kempe_coloring(g, seed=seed)
        validate_proper_coloring(g, coloring)

    @given(edge_lists)
    @settings(deadline=None, max_examples=60)
    def test_never_worse_than_greedy_baseline_bound(self, edges):
        g = build(edges)
        coloring = kempe_coloring(g)
        if g.num_edges:
            assert num_colors_used(coloring) <= 2 * g.max_degree() - 1


simple_edge_sets = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda t: t[0] < t[1]),
    min_size=0,
    max_size=20,
)


class TestVizingProperties:
    @given(simple_edge_sets)
    @settings(deadline=None)
    def test_delta_plus_one_always(self, pairs):
        g = Multigraph(nodes=range(8))
        for u, v in pairs:
            g.add_edge(u, v)
        coloring = vizing_coloring(g)
        validate_proper_coloring(g, coloring)
        if g.num_edges:
            assert num_colors_used(coloring) <= g.max_degree() + 1


bipartite_edges = st.lists(
    st.tuples(st.integers(0, 3), st.integers(4, 7)),
    min_size=0,
    max_size=25,
)


class TestBipartiteProperties:
    @given(bipartite_edges)
    @settings(deadline=None)
    def test_koenig_exactly_delta(self, pairs):
        g = Multigraph(nodes=range(8))
        for u, v in pairs:
            g.add_edge(u, v)
        coloring = konig_coloring(g)
        validate_proper_coloring(g, coloring)
        if g.num_edges:
            assert num_colors_used(coloring) == g.max_degree()


class TestEulerSplitProperties:
    @given(edge_lists)
    @settings(deadline=None, max_examples=60)
    def test_always_proper(self, edges):
        g = build(edges)
        coloring = euler_split_coloring(g)
        validate_proper_coloring(g, coloring)
