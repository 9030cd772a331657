"""Unit tests for the multigraph data structure."""

import pytest

from repro.graphs.multigraph import Multigraph
from tests.conftest import random_multigraph


class TestConstruction:
    def test_empty_graph(self):
        g = Multigraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_nodes_and_edges_from_init(self):
        g = Multigraph(nodes=["x"], edges=[("a", "b"), ("b", "c")])
        assert set(g.nodes) == {"x", "a", "b", "c"}
        assert g.num_edges == 2

    def test_add_edge_returns_distinct_ids(self):
        g = Multigraph()
        e1 = g.add_edge("a", "b")
        e2 = g.add_edge("a", "b")
        assert e1 != e2
        assert g.multiplicity("a", "b") == 2

    def test_add_node_idempotent(self):
        g = Multigraph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1


class TestDegrees:
    def test_parallel_edges_count_separately(self):
        g = Multigraph(edges=[("a", "b"), ("a", "b"), ("a", "c")])
        assert g.degree("a") == 3
        assert g.degree("b") == 2
        assert g.degree("c") == 1

    def test_self_loop_counts_twice(self):
        g = Multigraph()
        g.add_edge("a", "a")
        assert g.degree("a") == 2

    def test_max_degree(self):
        g = Multigraph(edges=[("a", "b"), ("a", "c"), ("a", "d")])
        assert g.max_degree() == 3

    def test_degree_sum_is_twice_edges(self):
        g = random_multigraph(10, 40, seed=3)
        assert sum(g.degree(v) for v in g.nodes) == 2 * g.num_edges


class TestMutation:
    def test_remove_edge_restores_degree(self):
        g = Multigraph()
        eid = g.add_edge("a", "b")
        g.remove_edge(eid)
        assert g.degree("a") == 0
        assert g.num_edges == 0

    def test_remove_self_loop(self):
        g = Multigraph()
        eid = g.add_edge("a", "a")
        assert g.remove_edge(eid) == ("a", "a")
        assert g.degree("a") == 0

    def test_remove_node_drops_incident_edges(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        g.remove_node("b")
        assert not g.has_node("b")
        assert g.num_edges == 1  # only (a, c) survives

    def test_edge_ids_stable_across_removal(self):
        g = Multigraph()
        e1 = g.add_edge("a", "b")
        e2 = g.add_edge("b", "c")
        g.remove_edge(e1)
        assert g.endpoints(e2) == ("b", "c")
        e3 = g.add_edge("c", "a")
        assert e3 not in (e1, e2)


class TestQueries:
    def test_other_endpoint(self):
        g = Multigraph()
        eid = g.add_edge("a", "b")
        assert g.other_endpoint(eid, "a") == "b"
        assert g.other_endpoint(eid, "b") == "a"
        with pytest.raises(ValueError):
            g.other_endpoint(eid, "z")

    def test_edges_between_orders_do_not_matter(self):
        g = Multigraph(edges=[("a", "b"), ("b", "a"), ("a", "c")])
        assert len(g.edges_between("a", "b")) == 2
        assert g.edges_between("a", "b") == g.edges_between("b", "a")

    def test_incident_edges_include_self_loops_once(self):
        g = Multigraph()
        loop = g.add_edge("a", "a")
        edge = g.add_edge("a", "b")
        assert sorted(g.incident_edges("a")) == sorted([loop, edge])

    def test_neighbors(self):
        g = Multigraph(edges=[("a", "b"), ("a", "b"), ("a", "c")])
        assert g.neighbors("a") == {"b", "c"}

    def test_max_multiplicity(self):
        g = Multigraph(edges=[("a", "b"), ("a", "b"), ("a", "b"), ("b", "c")])
        assert g.max_multiplicity() == 3


class TestStructure:
    def test_connected_components(self):
        g = Multigraph(nodes=["z"], edges=[("a", "b"), ("b", "c"), ("d", "e")])
        comps = sorted(g.connected_components(), key=lambda s: sorted(map(str, s)))
        assert {"a", "b", "c"} in comps
        assert {"d", "e"} in comps
        assert {"z"} in comps

    def test_edge_subgraph(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        keep = g.edge_ids()[:2]
        sub = g.edge_subgraph(keep)
        assert sorted(sub.edge_ids()) == sorted(keep)

    def test_copy_is_independent(self):
        g = Multigraph(edges=[("a", "b")])
        h = g.copy()
        h.add_edge("a", "b")
        assert g.num_edges == 1
        assert h.num_edges == 2
