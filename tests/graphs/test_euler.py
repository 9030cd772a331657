"""Tests for Euler circuits and orientations over CSR rows."""

import random

import pytest

from repro.graphs.euler import NotEulerianError
from repro.graphs.multigraph import Multigraph
from tests.conftest import euler_circuits, euler_orientation


def evenized_random_graph(num_nodes: int, num_edges: int, seed: int) -> Multigraph:
    """Random multigraph patched with extra edges until all degrees even."""
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    g = Multigraph(nodes=nodes)
    for _ in range(num_edges):
        u, v = rng.sample(nodes, 2)
        g.add_edge(u, v)
    odd = [v for v in g.nodes if g.degree(v) % 2 == 1]
    for i in range(0, len(odd), 2):
        g.add_edge(odd[i], odd[i + 1])
    return g


def assert_valid_circuit(graph: Multigraph, circuit):
    """A circuit must be contiguous, closed, and edge-distinct."""
    assert circuit, "circuit should not be empty here"
    for (_eid, _u, v), (_eid2, u2, _v2) in zip(circuit, circuit[1:]):
        assert v == u2, "consecutive steps must share a node"
    assert circuit[0][1] == circuit[-1][2], "circuit must close"
    eids = [step[0] for step in circuit]
    assert len(eids) == len(set(eids)), "no edge may repeat"


class TestEulerCircuits:
    def test_odd_degree_rejected(self):
        g = Multigraph(edges=[("a", "b")])
        with pytest.raises(NotEulerianError):
            euler_circuits(g)

    def test_triangle(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        (circuit,) = euler_circuits(g)
        assert_valid_circuit(g, circuit)
        assert len(circuit) == 3

    def test_self_loop_only(self):
        g = Multigraph()
        g.add_edge("a", "a")
        (circuit,) = euler_circuits(g)
        assert len(circuit) == 1
        assert circuit[0][1] == circuit[0][2] == "a"

    def test_two_components(self):
        g = Multigraph(
            edges=[("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "x")]
        )
        circuits = euler_circuits(g)
        assert sorted(len(c) for c in circuits) == [2, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_eulerian_graphs_fully_covered(self, seed):
        g = evenized_random_graph(9, 25, seed)
        circuits = euler_circuits(g)
        covered = [eid for c in circuits for (eid, _u, _v) in c]
        assert sorted(covered) == sorted(g.edge_ids())
        for c in circuits:
            assert_valid_circuit(g, c)

    def test_isolated_nodes_yield_no_circuits(self):
        g = Multigraph(nodes=["a", "b"])
        assert euler_circuits(g) == []


class TestEulerOrientation:
    @pytest.mark.parametrize("seed", range(6))
    def test_orientation_balances_every_node(self, seed):
        g = evenized_random_graph(8, 30, seed)
        orientation = euler_orientation(g)
        assert len(orientation) == g.num_edges
        out_deg = {v: 0 for v in g.nodes}
        in_deg = {v: 0 for v in g.nodes}
        for eid, (tail, head) in orientation.items():
            assert set(g.endpoints(eid)) == {tail, head} or tail == head
            out_deg[tail] += 1
            in_deg[head] += 1
        for v in g.nodes:
            assert out_deg[v] == in_deg[v] == g.degree(v) // 2

    def test_self_loop_counts_one_in_one_out(self):
        g = Multigraph()
        g.add_edge("a", "a")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        orientation = euler_orientation(g)
        outs = sum(1 for t, _h in orientation.values() if t == "a")
        ins = sum(1 for _t, h in orientation.values() if h == "a")
        assert outs == ins == 2
