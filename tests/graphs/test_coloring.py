"""Tests for the proper edge-coloring suite."""

import hashlib
import random

import pytest

from repro.checks.engine import DEFAULT_CORPUS
from repro.core.general import split_by_capacity
from repro.graphs.coloring import (
    euler_split_coloring,
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

    #: sha256 prefix of ``repr(sorted(euler_split_coloring(g).items()))``
    #: for Saia's split graph of each engine-corpus instance, and for
    #: random multigraphs with odd-degree nodes and edge-id holes (the
    #: evenizing hub and the odd-circuit rotation both run on them).
    PINNED = {
        "random/mixed-caps": "dd3e39bef6adedfa",
        "random/all-even": "bb084611c002d3cf",
        "random/general-forced": "14a7f02d4620d692",
        "bipartite/disk-addition": "6efe5c530e928a06",
        "clique/figure-2": "9a118d8f1fc3cfc8",
        "hotspot/hub-drain": "8c84cb66f9139c20",
        "regular/config-model": "4d2cfc4ee0c5a692",
        "multi-component/mixed-parity": "bd1b1deddf7eb6eb",
        "random/wide-palette": "17a98e9b7a868d30",
        "cycles/odd-unit": "8c049fc0f08ced8e",
        "odd-degree/0": "05fc99a3ad0b4baa",
        "odd-degree/1": "1f89355fbbc377ec",
        "odd-degree/2": "ec25dc39c379b6df",
        "odd-degree/3": "5eb172548f3be9c4",
        "odd-degree/4": "efff087bf2221529",
        "odd-degree/5": "806e1ce7e644d092",
    }

    def test_pinned(self):
        graphs = {}
        for name, _method, factory in DEFAULT_CORPUS:
            inst = factory()
            graphs[name], _ = split_by_capacity(inst.graph, inst.capacity)
        for s in range(6):
            g = random_multigraph(9 + s, 40 + 7 * s, seed=1000 + s)
            for eid in g.edge_ids()[::7]:
                g.remove_edge(eid)
            assert any(g.degree(v) % 2 for v in g.nodes)
            graphs[f"odd-degree/{s}"] = g
        digests = {}
        for name, g in graphs.items():
            coloring = euler_split_coloring(g)
            validate_proper_coloring(g, coloring)
            blob = repr(sorted(coloring.items())).encode()
            digests[name] = hashlib.sha256(blob).hexdigest()[:16]
        assert digests == self.PINNED


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
