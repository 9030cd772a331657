"""Property-based tests for the graph substrates (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.multigraph import Multigraph
from tests.conftest import euler_circuits, euler_orientation
from tests.flow_oracle import assert_peel_agrees

# A multigraph as a list of (u, v) pairs over a small node universe.
edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda t: t[0] != t[1]),
    min_size=0,
    max_size=40,
)


def build(edges):
    g = Multigraph(nodes=range(8))
    for u, v in edges:
        g.add_edge(u, v)
    return g


def evenize(g):
    odd = [v for v in g.nodes if g.degree(v) % 2 == 1]
    for i in range(0, len(odd), 2):
        g.add_edge(odd[i], odd[i + 1])
    return g


class TestMultigraphProperties:
    @given(edge_lists)
    def test_degree_sum_twice_edges(self, edges):
        g = build(edges)
        assert sum(g.degree(v) for v in g.nodes) == 2 * g.num_edges

    @given(edge_lists)
    def test_remove_all_edges_leaves_zero_degrees(self, edges):
        g = build(edges)
        for eid in g.edge_ids():
            g.remove_edge(eid)
        assert all(g.degree(v) == 0 for v in g.nodes)
        assert g.num_edges == 0

    @given(edge_lists)
    def test_components_partition_nodes(self, edges):
        g = build(edges)
        comps = g.connected_components()
        seen = [v for comp in comps for v in comp]
        assert sorted(seen, key=repr) == sorted(g.nodes, key=repr)

    @given(edge_lists)
    def test_copy_equals_original(self, edges):
        g = build(edges)
        h = g.copy()
        assert sorted(h.edges()) == sorted(g.edges())
        assert {v: h.degree(v) for v in h.nodes} == {v: g.degree(v) for v in g.nodes}


class TestEulerProperties:
    @given(edge_lists)
    def test_orientation_covers_and_balances(self, edges):
        g = evenize(build(edges))
        orientation = euler_orientation(g)
        assert set(orientation) == set(g.edge_ids())
        for v in g.nodes:
            outs = sum(1 for t, _h in orientation.values() if t == v)
            ins = sum(1 for _t, h in orientation.values() if h == v)
            assert outs == ins == g.degree(v) // 2

    @given(edge_lists)
    def test_circuits_are_closed_walks(self, edges):
        g = evenize(build(edges))
        for circuit in euler_circuits(g):
            if not circuit:
                continue
            for (_e1, _u1, v1), (_e2, u2, _v2) in zip(circuit, circuit[1:]):
                assert v1 == u2
            assert circuit[0][1] == circuit[-1][2]


@st.composite
def quota_networks(draw):
    """``(left_quota, right_quota, edges)``: quotas with equal totals
    and random unit edges, feasible or not."""
    left = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    right = [0] * draw(st.integers(1, 5))
    for _ in range(sum(left)):
        right[draw(st.integers(0, len(right) - 1))] += 1
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, len(left) - 1), st.integers(0, len(right) - 1)),
            max_size=25,
        )
    )
    return left, right, edges


class TestFlowProperties:
    @given(quota_networks())
    @settings(deadline=None)
    def test_peel_agrees_with_edmonds_karp(self, network):
        assert_peel_agrees(*network)
