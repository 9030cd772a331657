"""Cross-``PYTHONHASHSEED`` determinism harness.

``PYTHONHASHSEED`` randomizes ``str`` hashing per process, so any code
path that iterates a str-keyed ``set`` (or relies on set/dict ordering
derived from one) produces different schedules in different processes —
exactly the bug class PR 1 hot-fixed in ``bipartite_coloring``.  The
linter catches the pattern statically; this harness catches it
*behaviorally*: run the planner and the runtime executor in fresh
subprocesses under two different hash seeds and require byte-identical
canonical output.

Used by the ``repro-migrate check --determinism`` CLI path, the CI
``static-analysis`` job, and the regression tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import repro


class DeterminismError(Exception):
    """A determinism driver failed to run at all (not a mismatch)."""


#: Prints a canonical JSON schedule for a random instance.
#: argv: num_disks num_items instance_seed method
PLAN_DRIVER = """\
import json, sys
from repro.pipeline import plan
from repro.workloads import random_instance

num_disks, num_items, instance_seed = map(int, sys.argv[1:4])
method = sys.argv[4]
instance = random_instance(num_disks, num_items, seed=instance_seed)
schedule = plan(instance, method=method, seed=0).schedule
payload = {
    "method": schedule.method,
    "rounds": [list(rnd) for rnd in schedule.rounds],
}
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""

#: Plans the same instance untraced (NULL_TRACER default) and traced
#: (real Tracer -> in-memory exporter); the schedules must be
#: identical — tracing is observation-only — and the traced schedule
#: is printed canonically so it is also compared across hash seeds.
#: argv: num_disks num_items instance_seed method
TRACED_PLAN_DRIVER = """\
import json, sys
from repro.obs import InMemoryExporter, Tracer
from repro.pipeline import plan
from repro.workloads import random_instance

num_disks, num_items, instance_seed = map(int, sys.argv[1:4])
method = sys.argv[4]
instance = random_instance(num_disks, num_items, seed=instance_seed)
noop = plan(instance, method=method, seed=0).schedule
tracer = Tracer(InMemoryExporter())
traced = plan(instance, method=method, seed=0, tracer=tracer).schedule
tracer.close()
if [list(r) for r in noop.rounds] != [list(r) for r in traced.rounds]:
    sys.exit("traced plan diverged from untraced plan")
payload = {
    "method": traced.method,
    "rounds": [list(rnd) for rnd in traced.rounds],
}
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""

#: Prints the canonical executor state after a full fault-injected run.
#: argv: scenario_seed executor_seed
EXECUTOR_DRIVER = """\
import json, sys
from repro.pipeline import plan
from repro.runtime import DiskCrash, FaultPlan, MigrationExecutor
from repro.workloads.scenarios import decommission_scenario

scenario_seed, executor_seed = map(int, sys.argv[1:3])
scenario = decommission_scenario(seed=scenario_seed)
faults = FaultPlan(transfer_failure_rate=0.1, crashes=(DiskCrash("new-2", 5.0),))
executor = MigrationExecutor(
    scenario.cluster,
    scenario.context,
    plan(scenario.instance).schedule,
    faults=faults,
    seed=executor_seed,
)
executor.run()
state = executor.get_state()
layout = scenario.cluster.layout.as_dict()
sys.stdout.write(json.dumps({"state": state, "layout": layout}, sort_keys=True))
"""


#: Runs a short seeded failure/recovery campaign and prints the
#: canonical report JSON — every layer the sim touches (event queue,
#: placement, repair batching, the staged planner, rate models,
#: metrics snapshot) must be hash-seed independent for the bytes to
#: match.  argv: duration items seed
SIM_DRIVER = """\
import sys
from repro.sim import SimConfig, run_campaign

duration, items, seed = float(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
config = SimConfig(
    duration=duration, items=items, seed=seed,
    failure_rate=0.002, scrub_interval=50.0, latent_error_rate=0.2,
)
sys.stdout.write(run_campaign(config).canonical_json())
"""


#: Plans the same instance on the object and the array backend, fails
#: if they diverge in-process, and prints the array schedule
#: canonically — so the engine-equivalence contract is also checked
#: *across* hash seeds (both backends must be hash-seed independent
#: and agree with each other in every process).
#: argv: num_disks num_items instance_seed method
ENGINE_DRIVER = """\
import json, sys
from repro.pipeline import plan
from repro.workloads import random_instance

num_disks, num_items, instance_seed = map(int, sys.argv[1:4])
method = sys.argv[4]
instance = random_instance(
    num_disks, num_items, capacities={1: 0.3, 2: 0.4, 4: 0.3},
    seed=instance_seed,
)
obj = plan(instance, method=method, seed=0, backend="object").schedule
arr = plan(instance, method=method, seed=0, backend="array").schedule
if obj.rounds != arr.rounds or obj.method != arr.method:
    sys.exit("array backend diverged from object backend")
payload = {
    "method": arr.method,
    "rounds": [list(rnd) for rnd in arr.rounds],
}
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""


#: Plans a multi-component instance, applies a fixed delta through
#: ``plan_delta`` on both engine backends, fails if they diverge
#: in-process, and prints the patched schedule, dispositions and
#: certificate digests canonically — the incremental replanner must be
#: hash-seed independent end to end (token maps, patch recoloring,
#: cache write-through, certificates).  argv: seed
DELTA_DRIVER = """\
import json, random, sys
from repro.core.delta import InstanceDelta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan, plan_delta

seed = int(sys.argv[1])
rng = random.Random(seed)
graph = Multigraph()
caps = {}
for k in range(6):
    names = [f"c{k}.d{i}" for i in range(8)]
    for name in names:
        graph.add_node(name)
        caps[name] = rng.choice((1, 2, 3))
    for i in range(7):
        graph.add_edge(names[i], names[i + 1])
    for _ in range(30):
        u, v = rng.sample(range(8), 2)
        graph.add_edge(names[u], names[v])
instance = MigrationInstance(graph, caps)
delta = InstanceDelta(
    add_moves=(("c0.d0", "c0.d3"), ("c1.d2", "c1.d5")),
    remove_moves=(("c0.d0", "c0.d1"),),
    retarget_moves=(("c2.d0", "c2.d1", "c2.d4"),),
    capacity_changes=(("c3.d0", 2),),
)
payloads = []
for backend in ("object", "array"):
    cache = PlanCache(max_entries=512)
    prior = plan(instance, "auto", 0, cache=cache, backend=backend, certify=True)
    result = plan_delta(prior, delta, cache=cache, backend=backend, certify=True)
    payloads.append({
        "rounds": [list(rnd) for rnd in result.schedule.rounds],
        "dispositions": list(result.dispositions),
        "bound": result.certificate.bound,
        "patch_digest": result.patch_certificate.result_digest,
    })
if payloads[0] != payloads[1]:
    sys.exit("delta planner diverged between backends")
sys.stdout.write(json.dumps(payloads[0], sort_keys=True))
"""


#: Runs the quick approximation-gap sweep — every family exact-solved,
#: every optimality certificate verified, every heuristic ratio
#: recorded — and prints the canonical metrics JSON.  The exact
#: branch-and-bound iterates node/edge arrays and orbit maps; any
#: hash-order dependence anywhere in that search (or in the certificate
#: digests) changes the bytes.  argv: (none)
GAP_DRIVER = """\
import sys
from repro.exact.gap import canonical_json, collect_gap_metrics

sys.stdout.write(canonical_json(collect_gap_metrics(quick=True)))
"""


#: Runs the whole-program flow analyzer over the installed package and
#: prints the canonical report JSON — call-graph construction, effect
#: fixpoint, contract checks, and finding order must all be independent
#: of ``PYTHONHASHSEED`` for the bytes to match.  argv: (none)
FLOW_DRIVER = """\
import sys
from repro.checks.flow import analyze_tree

sys.stdout.write(analyze_tree().canonical_json())
"""


@dataclass(frozen=True)
class DeterminismCheck:
    """One driver run compared across hash seeds."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class DeterminismReport:
    checks: Tuple[DeterminismCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.ok else "MISMATCH"
            suffix = f" ({check.detail})" if check.detail and not check.ok else ""
            lines.append(f"  {check.name}: {status}{suffix}")
        return "\n".join(lines)


def _src_root() -> str:
    """The directory to put on PYTHONPATH so subprocesses import repro."""
    return str(Path(repro.__file__).resolve().parent.parent)


def run_driver(code: str, argv: Sequence[str], hash_seed: int) -> str:
    """Run one driver subprocess under a pinned ``PYTHONHASHSEED``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if result.returncode != 0:
        raise DeterminismError(
            f"driver exited {result.returncode}: {result.stderr.strip()[:500]}"
        )
    return result.stdout


def compare_across_hash_seeds(
    name: str,
    code: str,
    argv: Sequence[str],
    hash_seeds: Tuple[int, int] = (0, 1),
) -> DeterminismCheck:
    """Run one driver under both hash seeds and compare stdout bytes."""
    first = run_driver(code, argv, hash_seeds[0])
    second = run_driver(code, argv, hash_seeds[1])
    if first == second:
        return DeterminismCheck(name=name, ok=True)
    detail = _first_divergence(first, second)
    return DeterminismCheck(name=name, ok=False, detail=detail)


def _first_divergence(a: str, b: str) -> str:
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return f"outputs diverge at byte {i}: {a[i - 20 : i + 20]!r} vs {b[i - 20 : i + 20]!r}"
    return f"outputs have different lengths ({len(a)} vs {len(b)})"


#: (name, num_disks, num_items, instance_seed, method) planner cases.
DEFAULT_PLAN_CASES: Tuple[Tuple[str, int, int, int, str], ...] = (
    ("plan/auto/small", 8, 30, 11, "auto"),
    ("plan/general/medium", 12, 60, 7, "general"),
    ("plan/greedy/medium", 10, 50, 3, "greedy"),
    ("plan/exact_bb/tiny", 5, 8, 2, "exact_bb"),
)


def check_determinism(
    plan_cases: Optional[Sequence[Tuple[str, int, int, int, str]]] = None,
    include_executor: bool = True,
    include_sim: bool = True,
    include_flow: bool = True,
    include_gap: bool = True,
    hash_seeds: Tuple[int, int] = (0, 1),
) -> DeterminismReport:
    """Run the full cross-hash-seed battery.

    Each case is executed twice in fresh interpreters (hash seeds 0 and
    1 by default) and the canonical JSON outputs must match exactly.
    """
    checks: List[DeterminismCheck] = []
    for name, num_disks, num_items, seed, method in plan_cases or DEFAULT_PLAN_CASES:
        checks.append(
            compare_across_hash_seeds(
                name,
                PLAN_DRIVER,
                [str(num_disks), str(num_items), str(seed), method],
                hash_seeds,
            )
        )
    checks.append(
        compare_across_hash_seeds(
            "plan/traced-vs-noop", TRACED_PLAN_DRIVER, ["10", "40", "5", "auto"],
            hash_seeds,
        )
    )
    checks.append(
        compare_across_hash_seeds(
            "engine/array-vs-object", ENGINE_DRIVER, ["12", "60", "7", "auto"],
            hash_seeds,
        )
    )
    checks.append(
        compare_across_hash_seeds(
            "delta/array-vs-object", DELTA_DRIVER, ["7"], hash_seeds
        )
    )
    if include_executor:
        checks.append(
            compare_across_hash_seeds(
                "runtime/executor", EXECUTOR_DRIVER, ["1", "7"], hash_seeds
            )
        )
    if include_sim:
        checks.append(
            compare_across_hash_seeds(
                "sim/cross-hashseed", SIM_DRIVER, ["300", "40", "5"], hash_seeds
            )
        )
    if include_flow:
        checks.append(
            compare_across_hash_seeds(
                "checks/flow-report", FLOW_DRIVER, [], hash_seeds
            )
        )
    if include_gap:
        checks.append(
            compare_across_hash_seeds(
                "exact/gap-metrics", GAP_DRIVER, [], hash_seeds
            )
        )
    return DeterminismReport(checks=tuple(checks))
