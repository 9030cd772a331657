"""EXP-ONL — online migration policies under bursty arrivals.

Aqueduct-style operation: reconfiguration batches arrive while earlier
migrations still run.  The table compares the replanning policy (merge
all pending work and re-run the paper's scheduler each round) against
FIFO batch draining, on makespan and per-item response time.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.extensions.online import OnlineInstance, run_online


def bursty_arrivals(
    bursts: int, burst_size: int, gap: int, seed: int = 0
) -> OnlineInstance:
    """Deterministic bursty pattern over a small disk pool."""
    import random

    rng = random.Random(seed)
    disks = [f"d{i}" for i in range(8)]
    arrivals = {}
    for b in range(bursts):
        batch = []
        while len(batch) < burst_size:
            u, v = rng.sample(disks, 2)
            batch.append((u, v))
        arrivals[b * gap] = batch
    caps = {d: rng.choice([1, 2, 4]) for d in disks}
    return OnlineInstance(arrivals, caps)


def test_onl_policy_comparison(benchmark):
    table = Table(
        "EXP-ONL: online policies under bursty arrivals",
        ["bursts x size / gap", "policy", "makespan", "mean resp", "max resp", "plans"],
    )
    for bursts, size, gap in ((3, 30, 2), (5, 20, 1), (2, 60, 10)):
        workload = bursty_arrivals(bursts, size, gap, seed=bursts)
        for policy in ("replan", "fifo"):
            report = run_online(workload, policy=policy)
            table.add_row(
                f"{bursts}x{size}/{gap}", policy, report.makespan,
                report.mean_response, report.max_response, report.plans_computed,
            )
    emit(table)

    benchmark(run_online, bursty_arrivals(3, 30, 2, seed=3), policy="replan")


def test_onl_replan_beats_fifo_on_cross_batch_slack(benchmark):
    """A tiny batch behind a big unrelated one: replanning interleaves."""
    workload = OnlineInstance(
        arrivals={0: [("a", "b")] * 10, 1: [("c", "d")]},
        capacities={"a": 1, "b": 1, "c": 1, "d": 1},
    )
    replan = run_online(workload, policy="replan")
    fifo = run_online(workload, policy="fifo")
    table = Table(
        "EXP-ONLb: response time of the straggler batch",
        ["policy", "makespan", "straggler response"],
    )
    table.add_row("replan", replan.makespan, replan.timeline[10][1] - 1)
    table.add_row("fifo", fifo.makespan, fifo.timeline[10][1] - 1)
    emit(table)
    assert replan.timeline[10][1] <= fifo.timeline[10][1]

    benchmark(run_online, workload, policy="replan")
