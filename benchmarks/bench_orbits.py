"""EXP-ORBIT — watching Section V's edge orbits in both regimes.

The reference orbit machinery (Definitions 5.5–5.7) is exercised on
partial colorings left behind by first-fit:

* **starved palette** (``q < OPT``, dense multigraphs): growth quickly
  dead-ends in Δ-/Γ-witnesses — exactly Lemma 5.4's promise that a
  too-small palette betrays itself structurally (the algorithm then
  adds a color, justified by the witness).  At ``c = 1`` every orbit
  stops at its seed pair; at ``c = 2`` a disk with a spare slot lets
  some orbits grow (Definition 5.6) before they stop;
* **adequate palette** (``q = OPT``, regular bipartite): the bad-edge
  orbits resolve — a recoloring exists and the machinery (via the flip
  engine) finds it, so no new color is spent.
"""

import random

import pytest

from benchmarks.bench_fig4_abpaths import coloring_state, regular_bipartite_instance
from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.edge_orbits import explore_orbits, seed_orbits
from repro.workloads.generators import random_instance


def first_fit(state, seed):
    graph = state.graph
    order = list(range(graph.num_edges))
    random.Random(seed).shuffle(order)
    for e in order:
        c = state.common_missing_color(graph.edge_u[e], graph.edge_v[e])
        if c is not None:
            state.assign(e, c)
    return state


def starved_state(
    num_disks: int, num_items: int, palette_squeeze: int, seed: int, capacity: int = 1
):
    """First-fit with a squeezed palette; leftovers become bad edges."""
    inst = random_instance(num_disks, num_items, uniform_capacity=capacity, seed=seed)
    q = max(1, inst.delta_prime() - palette_squeeze)
    return inst, first_fit(coloring_state(inst, q, seed), seed)


def adequate_state(n: int, d: int, seed: int):
    """Regular bipartite at its optimal palette (König: q = d works)."""
    inst = regular_bipartite_instance(n, d, seed)
    return inst, first_fit(coloring_state(inst, d, seed), seed)


def test_orbit_growth_dynamics(benchmark):
    table = Table(
        "EXP-ORBIT: edge orbits under starved vs adequate palettes",
        ["regime", "graph", "orbits", "max size", "witnesses", "resolved"],
    )
    total_witnesses = 0
    grown = 0  # c = 2 orbits that grew past their seed pair
    for capacity in (1, 2):
        for n, m, squeeze in ((3, 60, 3), (4, 150, 4), (5, 200, 5)):
            _inst, state = starved_state(n, m, squeeze, seed=n * 7, capacity=capacity)
            traces = explore_orbits(state)
            state.validate()
            witnesses = sum(1 for t in traces if "witness" in t.outcome)
            total_witnesses += witnesses
            if capacity == 2:
                grown += sum(1 for t in traces if t.final_size > 2)
            table.add_row(
                f"starved c={capacity} (q=Δ'-{squeeze})", f"{n}d/{m}e", len(traces),
                max((t.final_size for t in traces), default=0),
                witnesses, sum(1 for t in traces if t.resolved),
            )
    total_resolved = 0
    for n, d in ((12, 9), (16, 12), (24, 16)):
        _inst, state = adequate_state(n, d, seed=n // 3)
        traces = explore_orbits(state)
        state.validate()
        resolved = sum(1 for t in traces if t.resolved)
        total_resolved += resolved
        table.add_row(
            "adequate (q=OPT)", f"{2 * n}d/{n * d}e", len(traces),
            max((t.final_size for t in traces), default=0),
            sum(1 for t in traces if "witness" in t.outcome), resolved,
        )
    emit(table)
    assert total_witnesses > 0, "starved palettes must produce witnesses"
    assert grown > 0, "some c=2 orbit must grow past its seed pair"

    def kernel():
        _i, fresh = starved_state(5, 200, 5, seed=35)
        return explore_orbits(fresh)

    benchmark(kernel)


def bad_edge_groups(state):
    """Groups of parallel uncolored edges (Definition 5.5's bad edges)."""
    groups = {}
    for e in state.uncolored_in_id_order():
        u, v = state.graph.edge_u[e], state.graph.edge_v[e]
        groups.setdefault((min(u, v), max(u, v)), []).append(e)
    return [g for g in groups.values() if len(g) > 1]


def test_orbit_seeds_match_bad_edges(benchmark):
    _inst, state = starved_state(4, 150, 4, seed=28)
    seeds = seed_orbits(state)
    groups = bad_edge_groups(state)
    assert len(seeds) == len(groups)

    benchmark(seed_orbits, state)
