"""Solver-level frozen outputs of the three CSR kernels.

``tests/data/plan_digests.json`` pins whole certified plans; these
tests pin each kernel on its own — the schedule digest and, for the
general kernel, every :class:`GeneralSolverStats` counter — so a change
that moves a byte or a counter names the kernel that moved it.  A
change that lands the same schedules with more sweeps or flips fails
here too.

The pins are the digests and counters that the object implementations
of the three schedulers gave on the same instances before the kernels
became the only implementation, except the padded even and bipartite
cases (``even/random*``, ``bip/1-4-0``, ``bip/1-3-1``, ``bip/2-2-3``),
rewritten when the split took its padding as counts; inputs that need
no padding kept their bytes (:class:`TestNoPaddingKeepsItsBytes`).
Rewrite one only for an intended, certificate-checked change of output.
"""

import pytest

from repro.checks.certify import verify_schedule
from repro.checks.engine import DEFAULT_CORPUS, schedule_digest
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.general import GeneralSolverStats, general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.core.special_cases import bipartite_optimal_schedule_compact
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from repro.pipeline.registry import select_solver
from repro.pipeline.stages import decompose
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    random_instance,
    regular_instance,
)

Stats = GeneralSolverStats

#: Each case's schedule digest.
DIGESTS = {
    "even/random0": "96416ebd8084b62b0dd3a39fbedbdb455ff6e66a97abdef35609221a98f6c6b7",
    "even/random1": "0aacc5e65400a5e8596d7582dbdecdb42d8a6b5bfeba3879dc516278bb1b7d25",
    "even/random2": "8daccc30c4079286a89b7c60c95d79bc131c421321614afa0b968ba13954da08",
    "even/random3": "52b16c6452d13cb1339025d6c505c916de837625a47ad69279e484458ec55d90",
    "even/regular": "82e3df2ad10cd2548466af863faa08c0b98a19fec62f938e294a9ae755087a8d",
    "even/empty": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "bip/1-4-0": "030270ed647d9c4fa6cc433c985f03cfe6e0a9c853eec7d18c0da52cfa1297b6",
    "bip/1-3-1": "a5ebbeb784e4168213c55dee9475337c51df80c9dc307802fa1456fbfe3916e3",
    "bip/3-5-2": "4e3d1fcd3c18f7d0ab6836582c04d27b409b4a4833d70e7ea8be9ca881242dc4",
    "bip/2-2-3": "3b1833dd664dda9d4cce0a59e5e4ad60595acbd04ebdb81e2b3411a3463efbcf",
    "bip/holes": "e857d8a8f1e5e58c2a6c60d471dd57527c3dabd1a9be830b03a1e9917f4fffee",
    "bip/regular": "c5a1056ecd1f0a07fc2d66b866a10b700a0304647912f9c7c45608d2bd29e524",
    "general/0": "d01d615e917574c79aef0e3cb3e5637b662ff6217e7befd4a5d13db6071dbf89",
    "general/1": "01466b5f4227a072459208d0de30c7632507757f8e1cf0ee031e0dfe7c165d03",
    "general/2": "5a42e2654645fab44f5f69b3668e144aea93b2c654e06c1afe5933f2663b7dac",
    "general/clique": "d3f9264ebb8ba4d469a42fd5b365b9cd5f136a374716de36ec95d19cb06ef1ae",
}

#: The general kernel's counters on the ``random_mixed`` instances; the
#: solver seed moves neither them nor the schedule here.
MIXED_STATS = {
    0: Stats(lower_bound=14, initial_colors=14, phase1_colors=14,
             sweeps=1, flips_attempted=50),
    1: Stats(lower_bound=16, initial_colors=16, phase1_colors=16,
             sweeps=1, flips_attempted=50),
    2: Stats(lower_bound=12, initial_colors=12, phase1_colors=12,
             sweeps=1, flips_attempted=50),
}

#: Every general solve of the engine corpus: for each entry, each
#: component the planner sends to the general kernel (``decompose``
#: order), at solver seeds 0 and 1.  ``cycles/odd-unit`` grows the
#: palette and runs Phase 2; ``clique/figure-2`` runs Phase 2 at seed 1.
CORPUS_STATS = {
    "random/mixed-caps": [
        (Stats(lower_bound=15, initial_colors=15, phase1_colors=15,
               sweeps=1, flips_attempted=80),) * 2,
    ],
    "random/general-forced": [
        (Stats(lower_bound=18, initial_colors=18, phase1_colors=18,
               sweeps=1, flips_attempted=60),) * 2,
    ],
    "clique/figure-2": [
        (
            Stats(lower_bound=20, initial_colors=20, phase1_colors=20,
                  sweeps=1, flips_attempted=40),
            Stats(lower_bound=20, initial_colors=20, phase1_colors=20,
                  phase2_colors=1, phase2_edges=1, sweeps=2,
                  flips_attempted=41),
        ),
    ],
    "multi-component/mixed-parity": [
        (Stats(lower_bound=12, initial_colors=12, phase1_colors=12,
               sweeps=1, flips_attempted=25),) * 2,
        (Stats(lower_bound=9, initial_colors=9, phase1_colors=9,
               sweeps=1, flips_attempted=25),) * 2,
    ],
    "random/wide-palette": [
        (Stats(lower_bound=83, initial_colors=83, phase1_colors=83,
               sweeps=1, flips_attempted=700),) * 2,
    ],
    "cycles/odd-unit": [
        (Stats(lower_bound=10, initial_colors=10, palette_growths=1,
               witnessed_growths=1, phase1_colors=11, phase2_colors=1,
               phase2_edges=1, sweeps=4, flips_attempted=25),) * 2,
        (Stats(lower_bound=7, initial_colors=7, palette_growths=1,
               witnessed_growths=1, phase1_colors=8, phase2_colors=1,
               phase2_edges=1, sweeps=4, flips_attempted=26),) * 2,
    ],
}


def assert_optimal(instance, sched, key):
    """Exactly Δ′ rounds, a valid schedule, and the pinned bytes."""
    assert verify_schedule(instance, sched.rounds) == sched.num_rounds
    assert sched.num_rounds == instance.delta_prime()
    assert schedule_digest(sched.rounds) == DIGESTS[key]


class TestEvenOptimalCompact:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_even(self, seed):
        instance = random_instance(
            10, 60, capacities={2: 0.6, 4: 0.4}, seed=seed
        )
        sched = even_optimal_schedule_compact(lower_instance(instance))
        assert sched.method == "even_optimal"
        assert_optimal(instance, sched, f"even/random{seed}")

    def test_regular(self):
        instance = regular_instance(12, 6, capacity=2, seed=1)
        sched = even_optimal_schedule_compact(lower_instance(instance))
        assert_optimal(instance, sched, "even/regular")

    def test_empty(self):
        instance = MigrationInstance(
            Multigraph(nodes=["a", "b"]), {"a": 2, "b": 2}
        )
        sched = even_optimal_schedule_compact(lower_instance(instance))
        assert sched.rounds == []
        assert_optimal(instance, sched, "even/empty")


class TestBipartiteOptimalCompact:
    @pytest.mark.parametrize(
        "old_cap,new_cap,seed",
        [(1, 4, 0), (1, 3, 1), (3, 5, 2), (2, 2, 3)],
    )
    def test_disk_addition(self, old_cap, new_cap, seed):
        instance = bipartite_instance(
            5, 4, 45, old_capacity=old_cap, new_capacity=new_cap, seed=seed
        )
        sched = bipartite_optimal_schedule_compact(lower_instance(instance))
        assert sched.method == "bipartite_optimal"
        assert_optimal(instance, sched, f"bip/{old_cap}-{new_cap}-{seed}")

    def test_edge_id_holes(self):
        """Removed edge ids leave holes the lowering must renumber."""
        g = Multigraph(nodes=["l0", "l1", "r0", "r1"])
        doomed = g.add_edge("l0", "r0")
        for _ in range(3):
            g.add_edge("l0", "r1")
            g.add_edge("l1", "r0")
        g.remove_edge(doomed)
        g.add_edge("l1", "r1")
        instance = MigrationInstance(
            g, {"l0": 1, "l1": 3, "r0": 2, "r1": 1}
        )
        sched = bipartite_optimal_schedule_compact(lower_instance(instance))
        assert sched.num_rounds == 4
        assert_optimal(instance, sched, "bip/holes")


def _regular_bipartite(delta=5, side=6, seed=3):
    """Unit capacities, ``delta`` random perfect matchings between two
    sides: König sees a ``Δ``-regular graph with equal sides."""
    import random

    rng = random.Random(seed)
    lefts = [f"l{i}" for i in range(side)]
    rights = [f"r{i}" for i in range(side)]
    moves = []
    for _ in range(delta):
        perm = rights[:]
        rng.shuffle(perm)
        moves += zip(lefts, perm)
    return MigrationInstance.from_moves(moves, {v: 1 for v in lefts + rights})


class TestNoPaddingKeepsItsBytes:
    """An input that needs no padding passes ``split`` none, and its
    schedule keeps the bytes it had when padding was edges."""

    @staticmethod
    def _captured_pads(monkeypatch, module):
        from repro.graphs.matching import QuotaPeeler

        pads = []

        class Capture(QuotaPeeler):
            @classmethod
            def split(cls, *args):
                pads.append(args[5])
                return super().split(*args)

        monkeypatch.setattr(module, "QuotaPeeler", Capture)
        return pads

    def test_even_every_degree_at_target(self, monkeypatch):
        from repro.core import even_optimal

        pads = self._captured_pads(monkeypatch, even_optimal)
        instance = regular_instance(12, 6, capacity=2, seed=1)
        caps = instance.capacities
        assert all(
            instance.graph.degree(v) == caps[v] * instance.delta_prime()
            for v in instance.graph.nodes
        )
        sched = even_optimal_schedule_compact(lower_instance(instance))
        assert pads == [{}]
        assert_optimal(instance, sched, "even/regular")

    def test_regular_bipartite(self, monkeypatch):
        from repro.graphs.coloring import bipartite

        pads = self._captured_pads(monkeypatch, bipartite)
        instance = _regular_bipartite()
        sched = bipartite_optimal_schedule_compact(lower_instance(instance))
        assert pads == [{}]
        assert_optimal(instance, sched, "bip/regular")


class TestGeneralCompact:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("solver_seed", [0, 1])
    def test_random_mixed(self, seed, solver_seed):
        instance = random_instance(
            9, 50, capacities={1: 0.4, 2: 0.3, 3: 0.3}, seed=seed
        )
        stats = GeneralSolverStats()
        sched = general_schedule_compact(
            lower_instance(instance), seed=solver_seed, stats=stats
        )
        assert sched.method == "general"
        assert verify_schedule(instance, sched.rounds) <= stats.theorem_budget()
        assert schedule_digest(sched.rounds) == DIGESTS[f"general/{seed}"]
        assert stats == MIXED_STATS[seed]

    def test_clique(self):
        instance = clique_instance(4, 3, capacity=1)
        stats = GeneralSolverStats()
        sched = general_schedule_compact(
            lower_instance(instance), seed=0, stats=stats
        )
        assert verify_schedule(instance, sched.rounds) == 9
        assert schedule_digest(sched.rounds) == DIGESTS["general/clique"]
        assert stats == Stats(lower_bound=9, initial_colors=9,
                              phase1_colors=9, sweeps=1, flips_attempted=18)

    @pytest.mark.parametrize("name", sorted(CORPUS_STATS))
    def test_corpus_stats(self, name):
        (method, factory), = [
            (method, factory)
            for entry, method, factory in DEFAULT_CORPUS
            if entry == name
        ]
        got = []
        for comp in decompose(factory()):
            sub = comp.instance
            if method != "general" and select_solver(sub).name != "general":
                continue
            ci = lower_instance(sub)
            runs = []
            for solver_seed in (0, 1):
                stats = GeneralSolverStats()
                sched = general_schedule_compact(ci, seed=solver_seed, stats=stats)
                assert verify_schedule(sub, sched.rounds) <= stats.theorem_budget()
                runs.append(stats)
            got.append(tuple(runs))
        assert got == CORPUS_STATS[name]

    def test_corpus_stats_cover_every_general_entry(self):
        """No corpus entry with a general component goes unpinned."""
        general_entries = set()
        for name, method, factory in DEFAULT_CORPUS:
            for comp in decompose(factory()):
                if method == "general" or select_solver(comp.instance).name == "general":
                    general_entries.add(name)
        assert general_entries == set(CORPUS_STATS)
