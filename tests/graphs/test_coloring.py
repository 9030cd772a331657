"""Tests for the proper edge-coloring suite."""

import random

import pytest

from repro.graphs.coloring import (
    euler_split_coloring,
    greedy_coloring,
    kempe_coloring,
    num_colors_used,
    validate_proper_coloring,
    vizing_coloring,
)
from repro.graphs.coloring.base import ImproperColoringError
from repro.graphs.coloring.bipartite import NotBipartiteError
from repro.graphs.coloring.euler_split import euler_split
from repro.graphs.coloring.vizing import NotSimpleGraphError
from repro.graphs.multigraph import Multigraph
from tests.conftest import konig_coloring, random_multigraph


def random_simple_graph(n: int, p: float, seed: int) -> Multigraph:
    rng = random.Random(seed)
    g = Multigraph(nodes=list(range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_bipartite_multigraph(nl: int, nr: int, m: int, seed: int) -> Multigraph:
    rng = random.Random(seed)
    g = Multigraph(nodes=[("L", i) for i in range(nl)] + [("R", j) for j in range(nr)])
    for _ in range(m):
        g.add_edge(("L", rng.randrange(nl)), ("R", rng.randrange(nr)))
    return g


class TestValidator:
    def test_accepts_proper(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c")])
        e0, e1 = g.edge_ids()
        validate_proper_coloring(g, {e0: 0, e1: 1})

    def test_rejects_conflict(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c")])
        e0, e1 = g.edge_ids()
        with pytest.raises(ImproperColoringError):
            validate_proper_coloring(g, {e0: 0, e1: 0})

    def test_rejects_incomplete(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c")])
        e0, _e1 = g.edge_ids()
        with pytest.raises(ImproperColoringError):
            validate_proper_coloring(g, {e0: 0})

    def test_partial_allowed_when_requested(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c")])
        e0, _e1 = g.edge_ids()
        validate_proper_coloring(g, {e0: 0}, require_complete=False)

    def test_rejects_out_of_palette(self):
        g = Multigraph(edges=[("a", "b")])
        (e0,) = g.edge_ids()
        with pytest.raises(ImproperColoringError):
            validate_proper_coloring(g, {e0: 3}, max_colors=2)


class TestGreedy:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_and_bounded(self, seed):
        g = random_multigraph(8, 30, seed=seed)
        coloring = greedy_coloring(g)
        validate_proper_coloring(g, coloring)
        assert num_colors_used(coloring) <= 2 * g.max_degree() - 1

    def test_self_loop_rejected(self):
        g = Multigraph()
        g.add_edge("a", "a")
        with pytest.raises(ValueError):
            greedy_coloring(g)

    def test_empty_graph(self):
        assert greedy_coloring(Multigraph()) == {}


class TestKempe:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_and_close_to_delta(self, seed):
        g = random_multigraph(9, 40, seed=seed)
        coloring = kempe_coloring(g, seed=seed)
        validate_proper_coloring(g, coloring)
        delta = g.max_degree()
        mu = g.max_multiplicity()
        # Vizing for multigraphs guarantees Δ+µ exists; the heuristic
        # should not be worse than Shannon's 3Δ/2 in practice.
        assert num_colors_used(coloring) <= min(delta + mu, (3 * delta) // 2 + 1)

    def test_matches_delta_on_bipartite_like_instances(self):
        g = random_bipartite_multigraph(5, 5, 25, seed=2)
        coloring = kempe_coloring(g)
        validate_proper_coloring(g, coloring)
        # Kőnig: bipartite needs exactly Δ; kempe should be within +1.
        assert num_colors_used(coloring) <= g.max_degree() + 1

    def test_max_colors_cap_enforced(self):
        g = Multigraph(edges=[("a", "b"), ("a", "c"), ("a", "d")])
        with pytest.raises(ValueError):
            kempe_coloring(g, max_colors=2)


class TestVizing:
    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(5) for p in (0.2, 0.6)])
    def test_delta_plus_one(self, seed, p):
        g = random_simple_graph(10, p, seed)
        coloring = vizing_coloring(g)
        validate_proper_coloring(g, coloring)
        assert num_colors_used(coloring) <= g.max_degree() + 1

    def test_rejects_multigraph(self):
        g = Multigraph(edges=[("a", "b"), ("a", "b")])
        with pytest.raises(NotSimpleGraphError):
            vizing_coloring(g)

    def test_rejects_self_loop(self):
        g = Multigraph()
        g.add_edge("a", "a")
        with pytest.raises(NotSimpleGraphError):
            vizing_coloring(g)

    def test_star_uses_exactly_delta(self):
        g = Multigraph(edges=[("hub", f"leaf{i}") for i in range(6)])
        coloring = vizing_coloring(g)
        validate_proper_coloring(g, coloring)
        assert num_colors_used(coloring) == 6

    def test_odd_cycle_needs_three(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        coloring = vizing_coloring(g)
        validate_proper_coloring(g, coloring)
        assert num_colors_used(coloring) == 3


class TestEulerSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_split_halves_degrees(self, seed):
        g = random_multigraph(8, 40, seed=seed)
        a, b = euler_split(g)
        assert a.num_edges + b.num_edges == g.num_edges
        assert set(a.edge_ids()).isdisjoint(b.edge_ids())
        for part in (a, b):
            for v in part.nodes:
                assert part.degree(v) <= g.degree(v) // 2 + 2

    @pytest.mark.parametrize("seed", range(5))
    def test_coloring_valid(self, seed):
        g = random_multigraph(8, 50, seed=seed)
        coloring = euler_split_coloring(g)
        validate_proper_coloring(g, coloring)

    def test_empty(self):
        assert euler_split_coloring(Multigraph()) == {}


class TestBipartite:
    @pytest.mark.parametrize("seed", range(6))
    def test_exactly_delta_colors(self, seed):
        g = random_bipartite_multigraph(5, 7, 30, seed=seed)
        coloring = konig_coloring(g)
        validate_proper_coloring(g, coloring)
        assert num_colors_used(coloring) == g.max_degree()

    def test_parallel_edges(self):
        g = Multigraph(edges=[("l", "r")] * 4)
        coloring = konig_coloring(g)
        validate_proper_coloring(g, coloring)
        assert num_colors_used(coloring) == 4

    def test_odd_cycle_rejected(self):
        g = Multigraph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(NotBipartiteError):
            konig_coloring(g)

    def test_empty(self):
        assert konig_coloring(Multigraph()) == {}
