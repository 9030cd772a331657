"""``run.py --self-test``: the benchmark checks itself at tiny sizes.

1. ``BENCHMARK.json`` names exactly the listed workloads (with their
   reasons) and the metrics ``run.py`` prints, with the same units.
2. Every workload runs at tiny size with tracing off and on, in a child
   process, and its last line carries every named metric with its unit.
3. Each output check fires on a corrupted output: one edge moved into
   an overfull round, one reversed move, and tampered certificates (a
   raised bound, and a raised LB2 witness count when there is one).
4. Every workload's timing-independent counters repeat exactly across
   two runs under different ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from typing import Any, List

from perfbench import checks
from perfbench.inputs import delta_chain, random_instance
from perfbench.run import END_TO_END, LISTED, PER_LAYER, WORKLOAD_NAMES, invoke, repeat_check
from perfbench.workloads import WORKLOADS, _replan_base, build

from repro import MigrationSchedule, plan

ROOT = Path(__file__).resolve().parent.parent


def check_declared() -> List[str]:
    """BENCHMARK.json matches the code: workloads (with their reasons),
    and every metric with its unit, in order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in bench[kind]] != list(expected):
            problems.append(f"BENCHMARK.json {kind} differs from run.py")
    declared = [(w["name"], w["why"]) for w in bench["workloads"]]
    if declared != [(name, WORKLOADS[name].why) for name in LISTED]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def check_runs() -> List[str]:
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            _report, result = invoke(workload, 1, 1.0, trace, tiny=True)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
            if got != list(expected):
                problems.append(f"{where}: metrics/units {got} != {list(expected)}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
            print(f"  {where}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    return problems


def _overfull(instance: Any, rounds: List[List[int]]) -> List[List[int]]:
    """Move one edge into a round where one of its endpoints is already
    at ``c_v``."""
    graph = instance.graph
    for r, rnd in enumerate(rounds):
        load: Counter = Counter()
        for eid in rnd:
            load.update(graph.endpoints(eid))
        for r2, other in enumerate(rounds):
            if r2 == r:
                continue
            for eid in other:
                if any(load[v] >= instance.capacity(v) for v in graph.endpoints(eid)):
                    moved = [list(x) for x in rounds]
                    moved[r2].remove(eid)
                    moved[r].append(eid)
                    return moved
    raise AssertionError("no saturated round to overfill")


def check_corruptions() -> List[str]:
    """Each output check passes the true output and fires on a
    corrupted one."""
    problems = []
    instance = build(random_instance(3, "st", 9, 60, (1, 2, 3)))
    result = plan(instance, certify=True)

    if checks.check_schedule(instance, result.schedule):
        problems.append("schedule check rejects a valid schedule")
    overfull = MigrationSchedule(_overfull(instance, result.schedule.rounds), method="x")
    if not checks.check_schedule(instance, overfull):
        problems.append("schedule check missed an edge moved into an overfull round")

    if checks.check_certificate(instance, result.certificate, result.lower_bound)[0]:
        problems.append("certificate check rejects a valid certificate")
    cert = result.certificate
    tampered = [dataclasses.replace(cert, bound=cert.bound + 1)]
    if cert.lb2 is not None:
        tampered.append(dataclasses.replace(
            cert, lb2=dataclasses.replace(cert.lb2, internal_edges=cert.lb2.internal_edges + 1)))
    for bad in tampered:
        if not checks.check_certificate(instance, bad, None)[0]:
            problems.append("certificate check missed a tampered certificate")

    spec = _replan_base(1, tiny=True)
    tick = delta_chain(1, spec, 1)[0]
    before = Counter(spec.moves)
    after = before - Counter(tick.removed) + Counter(tick.added)
    if checks.check_directed_change(before, after, tick.removed, tick.added):
        problems.append("directed check rejects the ledger's own edit")
    (u, v), = [m for m in sorted(after) if (m[1], m[0]) not in after][:1]
    reversed_one = after - Counter([(u, v)]) + Counter([(v, u)])
    if not checks.check_directed_change(before, reversed_one, tick.removed, tick.added):
        problems.append("directed check missed one reversed move")
    print(f"  corruptions: overfull round, {len(tampered)} tampered certificates, "
          "reversed move")
    return problems


def self_test() -> int:
    problems: List[str] = []
    for name, step in (("declared metrics", check_declared),
                       ("output checks", check_corruptions),
                       ("tiny runs", check_runs)):
        print(f"self-test: {name}")
        problems += step()
    print("self-test: exact repeats")
    for workload in WORKLOAD_NAMES:
        if repeat_check(workload, 1, 1.0, 1, tiny=True) != 0:
            problems.append(f"{workload}: counters differ between repeats")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
