"""CompactGraph/CompactInstance: the CSR snapshot and its contracts.

The array backend's correctness story rests on a handful of exact
order-preservation invariants (documented in ``docs/engine.md``); the
tests here pin each one down directly instead of relying only on the
end-to-end frozen plan digests.
"""

import pytest

from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import (
    CompactGraph,
    lift_coloring,
    lift_rounds,
    lower_instance,
)
from repro.graphs.matching import InfeasibleMatchingError, QuotaPeeler
from repro.graphs.multigraph import Multigraph
from tests.flow_oracle import assert_peel_agrees


def assert_encodes(g: Multigraph) -> CompactGraph:
    """``from_multigraph(g)``'s arrays give ``g``'s nodes, edge ids,
    endpoints, rows and degrees, orders included."""
    compact = CompactGraph.from_multigraph(g)
    assert compact.nodes == g.nodes
    assert compact.index_of == {v: i for i, v in enumerate(g.nodes)}
    assert [
        (eid, compact.nodes[compact.edge_u[e]], compact.nodes[compact.edge_v[e]])
        for e, eid in enumerate(compact.edge_ids)
    ] == list(g.edges())
    assert compact.edge_index_of == {eid: e for e, eid in enumerate(g.edge_ids())}
    for i, v in enumerate(g.nodes):
        row = compact.inc_edge[compact.indptr[i]:compact.indptr[i + 1]]
        assert [compact.edge_ids[e] for e in row] == g.incident_edges(v)
        assert compact.degree[i] == g.degree(v)
    return compact


def sample_graph() -> Multigraph:
    g = Multigraph(nodes=["a", "b", "c", "d"])
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "b")  # parallel
    g.add_edge("c", "c")  # self-loop
    g.add_edge("d", "a")
    return g


class TestSnapshot:
    def test_lossless(self):
        assert_encodes(sample_graph())

    def test_empty(self):
        compact = assert_encodes(Multigraph())
        assert (compact.num_nodes, compact.num_edges) == (0, 0)
        assert compact.indptr == [0]

    def test_isolated_nodes_survive(self):
        compact = assert_encodes(Multigraph(nodes=["x", "y"]))
        assert compact.nodes == ["x", "y"]
        assert compact.indptr == [0, 0, 0]
        assert compact.num_edges == 0

    def test_after_remove_readd_interleaving(self):
        """Edge-id holes and non-contiguous ids are kept exactly."""
        g = Multigraph(nodes=[0, 1, 2])
        e0 = g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(e0)
        g.add_edge(0, 2)  # gets a fresh id, not e0's
        e3 = g.add_edge(2, 0)
        g.remove_edge(e3)
        assert assert_encodes(g).edge_ids == [1, 2]

    def test_non_ascending_ids(self):
        """An ``edge_subgraph`` enumerates ids in the caller's order."""
        g = sample_graph().edge_subgraph([4, 1, 3, 0])
        assert assert_encodes(g).edge_ids == [4, 1, 3, 0]

    def test_snapshot_is_immutable_under_source_mutation(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        g.add_edge("a", "d")
        assert compact.num_edges == 5
        assert len(compact.edge_ids) == 5


class TestIterationOrderContract:
    def test_edges_enumerate_in_object_order(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        assert compact.edge_ids == [eid for eid, _u, _v in g.edges()]
        for e, (eid, u, v) in enumerate(g.edges()):
            assert compact.nodes[compact.edge_u[e]] == u
            assert compact.nodes[compact.edge_v[e]] == v

    def test_incident_rows_match_object_adjacency(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        for i, v in enumerate(g.nodes):
            row = compact.inc_edge[compact.indptr[i]:compact.indptr[i + 1]]
            assert [compact.edge_ids[e] for e in row] == g.incident_edges(v)

    def test_self_loop_degree_and_row(self):
        g = Multigraph(nodes=["v"])
        loop = g.add_edge("v", "v")
        compact = CompactGraph.from_multigraph(g)
        assert compact.degree[0] == 2  # loops count twice toward degree
        assert compact.inc_edge == [0]  # but appear once per row
        assert compact.indptr == [0, 1]
        assert compact.edge_u[0] == compact.edge_v[0] == 0
        assert compact.edge_ids[0] == loop

    def test_node_reprs(self):
        g = Multigraph(nodes=["delta", "alpha", "charlie", "bravo"])
        compact = CompactGraph.from_multigraph(g)
        assert compact.node_reprs() == [repr(v) for v in g.nodes]
        assert compact.node_reprs() is compact.node_reprs()  # cached


class TestCompactInstance:
    def test_lowering_mirrors_instance(self):
        g = Multigraph(nodes=["a", "b", "c"])
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        instance = MigrationInstance(g, {"a": 1, "b": 2, "c": 4})
        ci = lower_instance(instance)
        assert ci.source is instance
        assert ci.capacities == [1, 2, 4]
        assert ci.delta_prime() == instance.delta_prime()
        assert ci.all_even() == instance.all_even()

    def test_all_even_tracks_capacities(self):
        g = Multigraph(nodes=["a", "b"])
        g.add_edge("a", "b")
        even = lower_instance(MigrationInstance(g.copy(), {"a": 2, "b": 4}))
        odd = lower_instance(MigrationInstance(g.copy(), {"a": 2, "b": 3}))
        assert even.all_even()
        assert not odd.all_even()

    def test_lift_rounds_and_coloring(self):
        g = sample_graph()
        compact = CompactGraph.from_multigraph(g)
        eids = compact.edge_ids
        assert lift_rounds(compact, [[0, 2], [1]]) == [
            [eids[0], eids[2]], [eids[1]]
        ]
        lifted = lift_coloring(compact, {3: 0, 1: 1})
        # Insertion order of the compact dict is preserved by the lift.
        assert list(lifted.items()) == [(eids[3], 0), (eids[1], 1)]


class TestQuotaPeeler:
    @staticmethod
    def _feasible_problem(seed):
        """Quotas and a shuffled edge list that holds an exact-quota
        subgraph: three random ones (so parallel edges) plus strays."""
        import random

        rng = random.Random(seed)
        left_quota = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
        right_quota = [0] * rng.randint(1, 5)
        for _ in range(sum(left_quota)):
            right_quota[rng.randrange(len(right_quota))] += 1
        lefts = [l for l, q in enumerate(left_quota) for _ in range(q)]
        edges = []
        for _copy in range(3):
            rights = [r for r, q in enumerate(right_quota) for _ in range(q)]
            rng.shuffle(rights)
            edges += zip(lefts, rights)
        edges += [
            (rng.randrange(len(left_quota)), rng.randrange(len(right_quota)))
            for _ in range(4)
        ]
        rng.shuffle(edges)
        return left_quota, right_quota, edges

    @staticmethod
    def _even_top_level_instance():
        """A flow-bound even plan: 64 disks at capacity 2 or 4 and 8000
        random moves, ``Δ' = 141``, padded at most disks."""
        import random

        rng = random.Random(7)
        disks = [f"d{i}" for i in range(64)]
        moves = list(zip(disks, disks[1:]))
        while len(moves) < 8000:
            moves.append(tuple(rng.sample(disks, 2)))
        return MigrationInstance.from_moves(
            moves, {v: rng.choice((2, 4)) for v in disks}
        )

    @classmethod
    def _even_top_level(cls, monkeypatch):
        """The network ``H`` that the flow-bound even plan splits first:
        its 8000 real edges, with rows of over a hundred arcs at every
        node, and its padding counts."""
        from repro.core import even_optimal

        captured = []

        class Capture(QuotaPeeler):
            @classmethod
            def split(cls, *args):
                captured.append(args)
                return super().split(*args)

        monkeypatch.setattr(even_optimal, "QuotaPeeler", Capture)
        even_optimal.even_optimal_schedule_compact(
            lower_instance(cls._even_top_level_instance())
        )
        left_quota, right_quota, edge_left, edge_right, _parts, pads = captured[0]
        return left_quota, right_quota, list(zip(edge_left, edge_right)), pads

    @pytest.mark.parametrize("case", [*range(8), "even-top-level"])
    def test_peel_meets_quotas(self, case, monkeypatch):
        pads = None
        if case == "even-top-level":
            left_quota, right_quota, edges, pads = self._even_top_level(monkeypatch)
            assert len(edges) == 8000
            assert sum(pads.values()) > 5000
        else:
            left_quota, right_quota, edges = self._feasible_problem(case)
        assert assert_peel_agrees(left_quota, right_quota, edges, pads) is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_padded_peel_meets_quotas(self, seed):
        """Half of each feasible problem's edges as padding counts."""
        import random

        rng = random.Random(100 + seed)
        left_quota, right_quota, edges = self._feasible_problem(seed)
        pads = {}
        real = []
        for pair in edges:
            if rng.random() < 0.5:
                pads[pair] = pads.get(pair, 0) + 1
            else:
                real.append(pair)
        assert assert_peel_agrees(left_quota, right_quota, real, pads) is not None

    def test_padded_infeasible_peel_raises(self):
        """Left node 0 needs 2 units but reaches only right node 0, which
        drains 1: the oracle's flow is 1 and the peel raises."""
        assert assert_peel_agrees([2, 0], [1, 1], [(0, 0)], {(0, 0): 1}) is None

    def test_infeasible_quotas_raise(self):
        with pytest.raises(InfeasibleMatchingError):
            QuotaPeeler([2], [1], [0], [0])
        peeler = QuotaPeeler([1, 1], [1, 1], [0], [0])
        with pytest.raises(InfeasibleMatchingError):
            peeler.peel()


class TestSplitWork:
    """Machine-independent work of the Theorem 4.1 split: edge-steps
    (edges handed to the trail walk, virtual edges included) and peel
    arcs (unit plus pad arcs over every peeler).  Padding rides as
    counts, so both follow the real items, not ``Σ c_v·Δ'/2``; the
    ceilings are far below the padded-edge kernel's 94,656 / 42,534 and
    2,048,000 / 205,000."""

    @staticmethod
    def _work(instance, monkeypatch):
        from repro.checks.certify import verify_schedule
        from repro.core import even_optimal
        from repro.graphs import matching

        steps = arcs = 0
        walk = matching._alternate_trails

        def counted_walk(part, *args):
            nonlocal steps
            steps += len(part)
            return walk(part, *args)

        class Counted(QuotaPeeler):
            def __init__(self, left_quota, right_quota, edge_left, edge_right,
                         pads=None):
                nonlocal arcs
                arcs += len(edge_left) + len(pads or ())
                super().__init__(left_quota, right_quota, edge_left, edge_right, pads)

        monkeypatch.setattr(matching, "_alternate_trails", counted_walk)
        monkeypatch.setattr(even_optimal, "QuotaPeeler", Counted)
        sched = even_optimal.even_optimal_schedule_compact(lower_instance(instance))
        assert verify_schedule(instance, sched.rounds) == instance.delta_prime()
        return steps, arcs

    @pytest.mark.parametrize(
        "case, work, ceiling",
        [
            ("even-top-level", (53_952, 24_246), (60_000, 27_000)),
            ("hub-drain", (54_780, 4_251), (60_000, 5_000)),
        ],
        ids=["even-top-level", "hub-drain"],
    )
    def test_work_pins(self, case, work, ceiling, monkeypatch):
        from repro.workloads.generators import hotspot_instance

        if case == "even-top-level":
            instance = TestQuotaPeeler._even_top_level_instance()
        else:
            instance = hotspot_instance(200, 2, 4000, seed=9)
            assert instance.delta_prime() == 1025
        got = self._work(instance, monkeypatch)
        assert got[0] <= ceiling[0] and got[1] <= ceiling[1]
        assert got == work
