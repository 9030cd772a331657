"""EXP-ENGINE — raw-speed comparison of the CSR kernels and their reference.

The pipeline solves on flat CSR arrays (:mod:`repro.graphs.array_backend`
plus the compact kernels) purely for speed: they must produce the *same
bytes* as the object-engine reference solvers
(``repro.checks.engine.reference_engine``; `repro-migrate check
--engine` proves that differentially) while solving large components
many times faster.  This bench measures that factor end to end through
``repro.plan`` — lowering cost included — on instances where the solve
stage dominates:

* the headline: a 100k-edge even-capacity random instance
  (Δ' ≈ 1600), where the object engine's per-edge dict/object churn is
  the bottleneck and the array engine targets **>= 10x**;
* a 30k-edge variant of the same family (mid-size scaling point);
* a 3000-node 68-regular configuration-model instance — small Δ',
  DFS-bound, reported honestly as the family where flat arrays help
  least.

Each run appends one commit-keyed entry to ``BENCH_ENGINE.json`` at
the repo root (a clean commit refreshes its own entry; see
``benchmarks.conftest.append_bench_entry``), so the speedups accrete
per PR.  Run standalone with ``python -m benchmarks.bench_engine``;
``--quick`` runs the small smoke case only (the CI
``engine-bench-smoke`` job) and fails unless the array engine wins.
Every case also re-asserts byte-identical rounds, so the speedup
numbers can never drift away from the equivalence contract.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from benchmarks.conftest import append_bench_entry, emit
from repro.analysis.tables import Table
from repro.checks.engine import reference_engine
from repro.core.problem import MigrationInstance
from repro.pipeline.planner import plan
from repro.workloads.generators import random_instance, regular_instance

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"
BENCH_SCHEMA = "bench-engine/v1"

# The object engine's Euler/Kempe recursions are deep on 100k-edge
# instances; the array engine never recurses that far.
_RECURSION_LIMIT = 500_000


@dataclass(frozen=True)
class BenchCase:
    name: str
    factory: Callable[[], MigrationInstance]
    #: minimum acceptable array-over-object speedup (1.0 = "must win").
    target: float
    quick: bool = False


CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        name="random-100k-even",
        factory=lambda: random_instance(
            64, 100_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        target=10.0,
    ),
    BenchCase(
        name="random-30k-even",
        factory=lambda: random_instance(
            64, 30_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        target=5.0,
    ),
    BenchCase(
        name="regular-3000x68",
        factory=lambda: regular_instance(3000, 68, capacity=2, seed=3),
        target=1.0,
    ),
    BenchCase(
        name="random-8k-even-smoke",
        factory=lambda: random_instance(
            32, 8_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        target=1.0,
        quick=True,
    ),
)


def run_case(case: BenchCase) -> Dict[str, object]:
    """Time the reference and the kernels through ``repro.plan``.

    Uncached, serial, same method selection — the only variable is the
    engine.  The object run goes first so the array run can be checked
    byte-for-byte against it.
    """
    sys.setrecursionlimit(_RECURSION_LIMIT)
    instance = case.factory()

    start = time.perf_counter()
    with reference_engine():
        obj = plan(instance)
    object_seconds = time.perf_counter() - start

    start = time.perf_counter()
    arr = plan(instance)
    array_seconds = time.perf_counter() - start

    identical = (
        obj.schedule.rounds == arr.schedule.rounds
        and obj.schedule.method == arr.schedule.method
    )
    return {
        "edges": instance.num_items,
        "disks": instance.num_disks,
        "delta_prime": instance.delta_prime(),
        "method": arr.schedule.method,
        "rounds": arr.schedule.num_rounds,
        "object_seconds": round(object_seconds, 3),
        "array_seconds": round(array_seconds, 3),
        "speedup": round(object_seconds / array_seconds, 2)
        if array_seconds > 0
        else 0.0,
        "target": case.target,
        "identical": identical,
    }


def collect_metrics(quick: bool = False) -> Dict[str, object]:
    """One BENCH_ENGINE.json metrics payload."""
    cases: Dict[str, object] = {}
    for case in CASES:
        if quick and not case.quick:
            continue
        if not quick and case.quick:
            continue
        cases[case.name] = run_case(case)
    return {"mode": "quick" if quick else "full", "cases": cases}


def _render_table(metrics: Dict[str, object]) -> Table:
    table = Table(
        "EXP-ENGINE: CSR kernels vs object reference (repro.plan wall time)",
        ["case", "edges", "Δ'", "method", "object (s)", "array (s)", "speedup"],
    )
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        table.add_row(
            name, row["edges"], row["delta_prime"], row["method"],
            row["object_seconds"], row["array_seconds"], f'{row["speedup"]}x',
        )
    return table


def _check(metrics: Dict[str, object]) -> int:
    """0 when every case is byte-identical and meets its target."""
    failures = 0
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        if not row["identical"]:
            print(f"FAIL {name}: kernels diverged from the reference")
            failures += 1
        if row["speedup"] < row["target"]:
            print(
                f"FAIL {name}: speedup {row['speedup']}x below the "
                f"{row['target']}x target"
            )
            failures += 1
    return failures


def test_engine_smoke(benchmark):
    metrics = collect_metrics(quick=True)
    emit(_render_table(metrics))
    assert _check(metrics) == 0

    instance = random_instance(32, 8_000, capacities={2: 0.5, 4: 0.5}, seed=7)
    benchmark(lambda: plan(instance))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the small smoke case only (CI engine-bench-smoke)",
    )
    args = parser.parse_args(argv)
    metrics = collect_metrics(quick=args.quick)
    print(_render_table(metrics).render())
    entry = append_bench_entry(BENCH_FILE, BENCH_SCHEMA, metrics)
    print(f"appended to {BENCH_FILE} (commit {entry['commit']})")
    return 1 if _check(metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
