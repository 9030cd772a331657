"""Property-based tests for the planning pipeline (hypothesis).

The invariants the decomposition refactor must never violate:

* on instances whose every component is promoted to a provably optimal
  solver (all-even capacities, or a bipartite demand graph), the
  merged schedule *is* an optimum — by the mediant inequality OPT
  decomposes as a max over components — so it can never be worse than
  the monolithic general solver.  (On components solved by the
  *randomized* general algorithm the comparison is statistical, not
  certain: pipeline and monolithic draw different seeds, so the
  never-worse property is asserted only on the promoted domain where
  it is a theorem.)
* merged schedules validate against the parent instance and pass the
  independent certifier's round-trip;
* caching and parallelism never change schedule bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.certify import certify, verify_schedule
from repro.core.general import general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan

# Disjoint name pools so instances often have several components.
POOL_A = [f"a{i}" for i in range(5)]
POOL_B = [f"b{i}" for i in range(5)]
# Bipartite pool: moves only ever cross from old disks to new disks.
POOL_B_OLD = [f"bo{i}" for i in range(3)]
POOL_B_NEW = [f"bn{i}" for i in range(3)]


def _pairs(pool):
    return st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(
        lambda t: t[0] != t[1]
    )


def _build_instance(moves, capacities):
    nodes = sorted({d for pair in moves for d in pair})
    graph = Multigraph(nodes=nodes)
    for u, v in moves:
        graph.add_edge(u, v)
    return MigrationInstance(graph, {v: capacities[v] for v in nodes})


instances = st.builds(
    lambda moves_a, moves_b, caps: _build_instance(
        moves_a + moves_b, dict(zip(POOL_A + POOL_B, caps))
    ),
    st.lists(_pairs(POOL_A), min_size=1, max_size=15),
    st.lists(_pairs(POOL_B), min_size=1, max_size=15),
    st.lists(st.sampled_from([1, 2, 3, 4]), min_size=10, max_size=10),
)

# Every component of these instances is promoted: pool-A components are
# all-even (Section IV optimal), pool-B components are bipartite
# (Section V optimal) — so ``plan`` returns an exact optimum.
promoted_instances = st.builds(
    lambda moves_a, moves_b, caps_a, caps_b: _build_instance(
        moves_a + moves_b,
        {
            **dict(zip(POOL_A, caps_a)),
            **dict(zip(POOL_B_OLD + POOL_B_NEW, caps_b)),
        },
    ),
    st.lists(_pairs(POOL_A), min_size=1, max_size=15),
    st.lists(
        st.tuples(st.sampled_from(POOL_B_OLD), st.sampled_from(POOL_B_NEW)),
        min_size=1,
        max_size=15,
    ),
    st.lists(st.sampled_from([2, 4]), min_size=5, max_size=5),
    st.lists(st.sampled_from([1, 2, 3, 4]), min_size=6, max_size=6),
)


@given(inst=promoted_instances, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_pipeline_never_worse_than_monolithic_general(inst, seed):
    """All components promoted ⇒ pipeline = OPT ≤ any valid schedule."""
    result = plan(inst, seed=seed)
    monolithic = general_schedule_compact(lower_instance(inst), seed=seed)
    assert result.num_rounds <= verify_schedule(inst, monolithic.rounds)
    assert all(c.method in ("even_optimal", "bipartite_optimal")
               for c in result.components)


@given(inst=instances, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_merged_schedule_validates_and_certifies(inst, seed):
    result = plan(inst, seed=seed, certify=True)
    result.schedule.validate(inst)
    report = certify(inst, result.schedule)  # independent round-trip
    assert report.rounds == result.num_rounds
    assert report.lower_bound <= result.num_rounds
    assert result.lower_bound is not None
    assert result.lower_bound <= result.num_rounds


@given(inst=instances)
@settings(max_examples=40, deadline=None)
def test_cache_hit_is_byte_identical_to_fresh_solve(inst):
    cache = PlanCache()
    fresh = plan(inst, cache=cache)
    cached = plan(inst, cache=cache)
    assert cached.schedule.rounds == fresh.schedule.rounds
    assert cached.components_solved == 0
