"""EXP-ENGINE — wall time of the CSR kernels through ``repro.plan``.

The pipeline solves on flat CSR arrays (:mod:`repro.graphs.array_backend`
plus the kernels of Theorem 4.1, König and Theorem 5.1).  This bench
times ``repro.plan`` end to end — lowering included — on instances
where the solve stage dominates:

* the headline: a 100k-edge even-capacity random instance
  (Δ' ≈ 1600);
* a 30k-edge variant of the same family (mid-size scaling point);
* a 3000-node 68-regular configuration-model instance — small Δ',
  DFS-bound;
* a hub drain: two hot disks shed 4,000 items to 198 cold ones
  (Δ' = 1025), where nearly all of Theorem 4.1's augmentation is
  padding, which the split carries as counts.

Every case is even-capacity, so its plan must take exactly Δ' rounds
(Theorem 4.1), and ``repro.checks.certify.verify_schedule`` must
accept it; a case that fails either check fails the run.

Each run appends one commit-keyed entry to ``BENCH_ENGINE.json`` at
the repo root (a clean commit refreshes its own entry; see
``benchmarks.conftest.append_bench_entry``).  Entries recorded while an
object-graph twin of each kernel existed compare the two
(``object_seconds``, ``array_seconds``, ``speedup``); later entries
record the kernels alone (``seconds``).  Run standalone with
``python -m benchmarks.bench_engine``; ``--quick`` runs the small smoke
case only (the CI ``engine-bench-smoke`` job).
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
from repro.checks.certify import CertificationError, verify_schedule
from repro.core.problem import MigrationInstance
from repro.pipeline.planner import plan
from repro.workloads.generators import (
    hotspot_instance,
    random_instance,
    regular_instance,
)

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"
BENCH_SCHEMA = "bench-engine/v1"


@dataclass(frozen=True)
class BenchCase:
    name: str
    factory: Callable[[], MigrationInstance]
    quick: bool = False


CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        name="random-100k-even",
        factory=lambda: random_instance(
            64, 100_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
    ),
    BenchCase(
        name="random-30k-even",
        factory=lambda: random_instance(
            64, 30_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
    ),
    BenchCase(
        name="regular-3000x68",
        factory=lambda: regular_instance(3000, 68, capacity=2, seed=3),
    ),
    BenchCase(
        name="hub-drain-4k",
        factory=lambda: hotspot_instance(200, 2, 4_000, seed=9),
    ),
    BenchCase(
        name="random-8k-even-smoke",
        factory=lambda: random_instance(
            32, 8_000, capacities={2: 0.5, 4: 0.5}, seed=7
        ),
        quick=True,
    ),
)


def run_case(case: BenchCase) -> Dict[str, object]:
    """Time one uncached, serial ``repro.plan`` and check its schedule."""
    instance = case.factory()
    start = time.perf_counter()
    result = plan(instance)
    seconds = time.perf_counter() - start
    try:
        verify_schedule(instance, result.schedule.rounds)
        valid = True
    except CertificationError:
        valid = False
    return {
        "edges": instance.num_items,
        "disks": instance.num_disks,
        "delta_prime": instance.delta_prime(),
        "method": result.schedule.method,
        "rounds": result.schedule.num_rounds,
        "seconds": round(seconds, 3),
        "valid": valid,
    }


def collect_metrics(quick: bool = False) -> Dict[str, object]:
    """One BENCH_ENGINE.json metrics payload."""
    cases: Dict[str, object] = {}
    for case in CASES:
        if case.quick == quick:
            cases[case.name] = run_case(case)
    return {"mode": "quick" if quick else "full", "cases": cases}


def _render_table(metrics: Dict[str, object]) -> Table:
    table = Table(
        "EXP-ENGINE: CSR kernels (repro.plan wall time)",
        ["case", "edges", "Δ'", "method", "rounds", "seconds"],
    )
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        table.add_row(
            name, row["edges"], row["delta_prime"], row["method"],
            row["rounds"], row["seconds"],
        )
    return table


def _check(metrics: Dict[str, object]) -> int:
    """0 when every case is valid and takes exactly Δ' rounds."""
    failures = 0
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        if not row["valid"]:
            print(f"FAIL {name}: verify_schedule rejected the schedule")
            failures += 1
        if row["rounds"] != row["delta_prime"]:
            print(
                f"FAIL {name}: {row['rounds']} rounds, not Δ' = {row['delta_prime']}"
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
