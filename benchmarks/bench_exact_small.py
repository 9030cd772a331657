"""EXP-EX — exact optimum anchoring on tiny instances.

``OPT`` itself is NP-hard, so the other experiments compare against
the certified lower bound.  Here, on instances small enough for the
branch-and-bound solver (:func:`repro.exact.solve_exact`, whose optima
carry verified certificates), we close the loop: the table reports LB,
the exact OPT, the even-capacity scheduler (must equal OPT when
capacities are even) and the general algorithm (must stay within
Theorem 5.1's budget of the true OPT, and in practice matches it).
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.general import general_schedule_compact
from repro.core.lower_bounds import lower_bound
from repro.exact import solve_exact
from repro.graphs.array_backend import lower_instance
from tests.conftest import even_instance, random_instance


def solve_even(inst):
    return even_optimal_schedule_compact(lower_instance(inst))


def test_exact_anchor_general(benchmark):
    table = Table(
        "EXP-EX: exact OPT vs LB vs general algorithm (tiny instances)",
        ["seed", "items", "LB", "OPT", "general", "gap to OPT"],
    )
    worst_gap = 0
    for seed in range(10):
        inst = random_instance(5, 9, capacity_choices=(1, 2, 3), seed=seed)
        opt = solve_exact(inst).value
        general = general_schedule_compact(lower_instance(inst))
        general.validate(inst)
        got = general.num_rounds
        lb = lower_bound(inst)
        worst_gap = max(worst_gap, got - opt)
        table.add_row(seed, inst.num_items, lb, opt, got, got - opt)
        assert lb <= opt <= got
    emit(table)
    assert worst_gap <= 1

    inst = random_instance(5, 9, capacity_choices=(1, 2, 3), seed=0)
    benchmark(solve_exact, inst)


def test_exact_anchor_even(benchmark):
    table = Table(
        "EXP-EXb: exact OPT == Δ' == even-optimal rounds (Theorem 4.1 anchor)",
        ["seed", "items", "Δ'", "OPT", "even-optimal"],
    )
    for seed in range(6):
        inst = even_instance(4, 8, capacity_choices=(2, 4), seed=seed)
        opt = solve_exact(inst).value
        got = solve_even(inst).num_rounds
        table.add_row(seed, inst.num_items, inst.delta_prime(), opt, got)
        assert got == opt == inst.delta_prime() or inst.num_items == 0
    emit(table)

    inst = even_instance(4, 8, capacity_choices=(2, 4), seed=0)
    benchmark(solve_even, inst)
