"""EXP-RT — Lemma 5.9: runtime scaling of the schedulers.

The paper bounds the general algorithm's runtime polynomially in
``|E|``, ``|V|`` and ``Δ``.  This bench measures wall-clock scaling of
both schedulers as ``|E|`` doubles (at fixed density and at fixed node
count) and reports the growth factor — near-linear empirically, since
the flip engine touches each edge a bounded number of times on these
families.  A timing covers lowering the instance onto the CSR arrays
and the kernel; each schedule is validated after its timing.
"""

import time

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.general import general_schedule_compact
from repro.graphs.array_backend import lower_instance
from repro.workloads.generators import random_instance


def solve_general(inst):
    return general_schedule_compact(lower_instance(inst))


def solve_even(inst):
    return even_optimal_schedule_compact(lower_instance(inst))


def timed(solve, inst) -> float:
    start = time.perf_counter()
    schedule = solve(inst)
    seconds = time.perf_counter() - start
    schedule.validate(inst)
    return seconds


def test_rt_general_scaling(benchmark):
    table = Table(
        "EXP-RT: general algorithm wall-clock vs |E| (mixed odd capacities)",
        ["disks", "items", "seconds", "x vs previous"],
    )
    prev = None
    for n, m in ((20, 500), (28, 1000), (40, 2000), (56, 4000), (80, 8000)):
        inst = random_instance(n, m, capacities={1: 0.3, 3: 0.4, 5: 0.3}, seed=m)
        sec = timed(solve_general, inst)
        table.add_row(n, m, sec, (sec / prev) if prev else 1.0)
        prev = sec
    emit(table)

    inst = random_instance(40, 2000, capacities={1: 0.3, 3: 0.4, 5: 0.3}, seed=2000)
    benchmark(solve_general, inst)


def test_rt_even_scaling(benchmark):
    table = Table(
        "EXP-RTb: even-capacity scheduler wall-clock vs |E| (Euler-partition split)",
        ["disks", "items", "Δ'", "seconds"],
    )
    for n, m in ((20, 500), (40, 2000), (80, 8000)):
        inst = random_instance(n, m, capacities={2: 0.5, 4: 0.5}, seed=m)
        sec = timed(solve_even, inst)
        table.add_row(n, m, inst.delta_prime(), sec)
    emit(table)

    inst = random_instance(40, 2000, capacities={2: 0.5, 4: 0.5}, seed=7)
    benchmark(solve_even, inst)
