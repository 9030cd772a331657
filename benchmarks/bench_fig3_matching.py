"""EXP-F3 — Figure 3: the flow network behind the c_v/2-matchings.

Lemma 4.1 proves a fractional ``c_v/2``-flow exists in the Figure 3
network and integrality makes it integral; Lemma 4.2 peels ``Δ'`` such
matchings.  This bench exercises the machinery the planner runs: it
orients the evenized transfer graph with ``compact_euler_orientation``
at increasing scale, extracts one exact-quota matching with
``QuotaPeeler.peel`` (the extraction each odd level of the Euler
partition runs), checks that the selection is integral and meets every
quota exactly, and times one extraction.
"""

from collections import Counter

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.graphs.array_backend import CompactGraph
from repro.graphs.euler import compact_euler_orientation
from repro.graphs.matching import QuotaPeeler
from repro.workloads.generators import random_instance


def evenized_rows(num_disks: int, num_items: int, capacity: int, seed: int):
    """CSR rows of a random transfer graph whose odd-degree nodes are
    paired by extra edges, as ``compact_euler_orientation`` takes them."""
    inst = random_instance(num_disks, num_items, uniform_capacity=capacity, seed=seed)
    graph = inst.graph.copy()
    odd = [v for v in graph.nodes if graph.degree(v) % 2 == 1]
    for i in range(0, len(odd), 2):
        graph.add_edge(odd[i], odd[i + 1])
    c = CompactGraph.from_multigraph(graph)
    return c.indptr, c.inc_edge, c.inc_other, c.degree, c.num_edges


def oriented_bipartite(num_disks: int, num_items: int, capacity: int, seed: int):
    """Build H as even_optimal does (without dummy padding — we choose
    item counts so every degree is already even): edge ``(tail, head)``
    over node indices, in Euler circuit order."""
    order, tail, head = compact_euler_orientation(
        *evenized_rows(num_disks, num_items, capacity, seed)
    )
    return [(tail[e], head[e]) for e in order]


def peel_one(edges):
    """One exact matching with degree-derived quotas, as the first peel
    of Lemma 4.2.  Returns the picked edge indices and the left and
    right quotas, keyed by node index."""
    out_deg = {}
    in_deg = {}
    for left, right in edges:
        out_deg[left] = out_deg.get(left, 0) + 1
        in_deg[right] = in_deg.get(right, 0) + 1
    # For the first peel of a graph with max degree c·Δ', each side
    # needs quota min(c/2, remaining degree share); use degree-derived
    # quotas so the flow is always feasible for this standalone bench.
    delta_prime = max(
        (d for d in list(out_deg.values()) + list(in_deg.values())), default=1
    )
    quota_l = {v: -(-d // delta_prime) for v, d in out_deg.items()}
    quota_r = {v: -(-d // delta_prime) for v, d in in_deg.items()}
    # Equalize totals (ceil rounding can drift) by trimming the larger.
    while sum(quota_l.values()) > sum(quota_r.values()):
        v = max(quota_l, key=quota_l.get)
        quota_l[v] -= 1
    while sum(quota_r.values()) > sum(quota_l.values()):
        v = max(quota_r, key=quota_r.get)
        quota_r[v] -= 1
    left = {v: i for i, v in enumerate(quota_l)}
    right = {v: j for j, v in enumerate(quota_r)}
    picked = QuotaPeeler(
        list(quota_l.values()),
        list(quota_r.values()),
        [left[t] for t, _h in edges],
        [right[h] for _t, h in edges],
    ).peel()
    return picked, quota_l, quota_r


def test_fig3_flow_network_scaling(benchmark):
    table = Table(
        "EXP-F3 (Figure 3): c_v/2-matching extraction by max-flow",
        ["disks", "oriented edges", "matched", "integral", "quotas exact"],
    )
    checks = []
    for n, m, c in ((10, 60, 2), (30, 400, 4), (60, 2000, 4), (100, 6000, 8)):
        edges = oriented_bipartite(n, m, c, seed=n)
        picked, quota_l, quota_r = peel_one(edges)
        # Integral: a unit arc carries flow 0 or 1, so no edge twice.
        integral = len(set(picked)) == len(picked)
        exact = Counter(edges[k][0] for k in picked) == +Counter(quota_l) and (
            Counter(edges[k][1] for k in picked) == +Counter(quota_r)
        )
        checks.append(integral and exact)
        table.add_row(
            n, len(edges), len(picked),
            "yes" if integral else "no", "yes" if exact else "no",
        )
    emit(table)
    assert all(checks)

    edges = oriented_bipartite(60, 2000, 4, seed=60)
    benchmark(peel_one, edges)


def test_bench_euler_orientation(benchmark):
    rows = evenized_rows(80, 4000, 4, seed=3)
    order, _tail, _head = benchmark(compact_euler_orientation, *rows)
    assert len(order) == rows[-1]
