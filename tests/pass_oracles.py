"""Per-edge loop versions of the cold certified path's passes: oracles.

Each function here is the plain-loop form a live pass replaced with
C-level builtins (``map``, ``zip``, ``Counter``, set operations, slice
assignment, int sorts) or with fewer bytecodes per edge.  The live
passes must agree with them byte for byte — same lists, same dict
order, same digests, same error messages — and
``tests/test_pass_oracles.py`` checks that on random inputs.

* :func:`alternate_trails` — the trail halving of
  :meth:`repro.graphs.matching.QuotaPeeler.split`, one step per
  iteration;
* :func:`euler_circuits` / :func:`euler_orientation` — Hierholzer's
  walk with a node stack and ``(edge, from, to)`` steps, and the
  orientation read off the circuits;
* :func:`peeler_network` — the Figure 3 network's ``(to, cap, adj)``
  arrays, one edge (and one padding pair) at a time;
* :func:`csr_arrays` — ``CompactGraph.from_multigraph``'s arrays from
  one scan of the ``edges()`` generator;
* :func:`canonical_form` — the fingerprint and edge id → token map;
* :func:`canonical_order` — a fresh plan's rounds turned into sorted
  token rounds and back into edge ids, the round trip the planner
  made before ``repro.pipeline.canonical.canonical_order``;
* :func:`validate` / :func:`verify_schedule` — the two schedule
  checks, one edge at a time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.checks.certify import CertificationError
from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.graphs.euler import NotEulerianError
from repro.graphs.multigraph import EdgeId, Multigraph, Node
from repro.pipeline.canonical import canonicalize_rounds, rehydrate_rounds

PairToken = Tuple[str, str, int]


def alternate_trails(
    part: List[int], lo: Sequence[int], hi: Sequence[int], num_nodes: int
) -> Tuple[List[int], List[int]]:
    """Halve ``part`` along closed trails, edges alternating ``A``/``B``."""
    rows: List[List[int]] = [[] for _ in range(num_nodes)]
    for k in part:
        rows[lo[k]].append(k)
        rows[hi[k]].append(k)
    cursor = [0] * num_nodes
    used = bytearray(len(lo))
    in_b = bytearray(len(lo))
    for start in range(num_nodes):
        v = start
        flag = 0
        while True:
            row = rows[v]
            i = cursor[v]
            n = len(row)
            while i < n and used[row[i]]:
                i += 1
            if i == n:
                break
            k = row[i]
            cursor[v] = i + 1
            used[k] = 1
            in_b[k] = flag
            flag ^= 1
            v = lo[k] + hi[k] - v
    return [k for k in part if not in_b[k]], [k for k in part if in_b[k]]


def euler_circuits(
    indptr: Sequence[int],
    inc_edge: Sequence[int],
    inc_other: Sequence[int],
    degree: Sequence[int],
    num_edges: int,
) -> List[List[Tuple[int, int, int]]]:
    """Hierholzer over CSR rows: one circuit per component."""
    n = len(degree)
    for v in range(n):
        if degree[v] % 2 != 0:
            raise NotEulerianError(f"node index {v} has odd degree {degree[v]}")

    cursor = [0] * n
    used = bytearray(num_edges)
    circuits: List[List[Tuple[int, int, int]]] = []

    for start in range(n):
        i = cursor[start]
        row_end = indptr[start + 1]
        base = indptr[start]
        while base + i < row_end and used[inc_edge[base + i]]:
            i += 1
        cursor[start] = i
        if base + i >= row_end:
            continue
        stack: List[int] = [start]
        path_edges: List[Tuple[int, int, int]] = []
        tour: List[Tuple[int, int, int]] = []
        while stack:
            v = stack[-1]
            base = indptr[v]
            row_end = indptr[v + 1]
            i = cursor[v]
            while base + i < row_end and used[inc_edge[base + i]]:
                i += 1
            cursor[v] = i
            if base + i >= row_end:
                stack.pop()
                if path_edges:
                    tour.append(path_edges.pop())
            else:
                e = inc_edge[base + i]
                used[e] = 1
                w = inc_other[base + i]
                path_edges.append((e, v, w))
                stack.append(w)
        circuits.append(tour[::-1])
    return circuits


def euler_orientation(
    indptr: Sequence[int],
    inc_edge: Sequence[int],
    inc_other: Sequence[int],
    degree: Sequence[int],
    num_edges: int,
) -> Tuple[List[int], List[int], List[int]]:
    """``(order, tail, head)`` read off :func:`euler_circuits`."""
    order: List[int] = []
    tail = [-1] * num_edges
    head = [-1] * num_edges
    for circuit in euler_circuits(indptr, inc_edge, inc_other, degree, num_edges):
        for e, u, v in circuit:
            order.append(e)
            tail[e] = u
            head[e] = v
    return order, tail, head


def peeler_network(
    left_quota: Sequence[int],
    right_quota: Sequence[int],
    edge_left: Sequence[int],
    edge_right: Sequence[int],
    pads: Optional[Mapping[Tuple[int, int], int]] = None,
) -> Tuple[List[int], List[int], List[List[int]]]:
    """The quota network's ``(to, cap, adj)``, arcs appended in order:
    quota arcs, one unit arc per edge, one arc per padding pair."""
    num_left = len(left_quota)
    num_right = len(right_quota)
    sink = 1 + num_left + num_right
    to: List[int] = []
    cap: List[int] = []
    adj: List[List[int]] = [[] for _ in range(sink + 1)]
    for i, q in enumerate(left_quota):
        h = len(to)
        to.extend((1 + i, 0))
        cap.extend((q, 0))
        adj[0].append(h)
        adj[1 + i].append(h + 1)
    for j, q in enumerate(right_quota):
        h = len(to)
        to.extend((sink, 1 + num_left + j))
        cap.extend((q, 0))
        adj[1 + num_left + j].append(h)
        adj[sink].append(h + 1)
    for l, r in zip(edge_left, edge_right):
        h = len(to)
        to.extend((1 + num_left + r, 1 + l))
        cap.extend((1, 0))
        adj[1 + l].append(h)
        adj[1 + num_left + r].append(h + 1)
    for (l, r), c in (pads or {}).items():
        h = len(to)
        to.extend((1 + num_left + r, 1 + l))
        cap.extend((c, 0))
        adj[1 + l].append(h)
        adj[1 + num_left + r].append(h + 1)
    return to, cap, adj


def csr_arrays(graph: Multigraph) -> Dict[str, object]:
    """The CSR snapshot's arrays, one ``edges()`` triple at a time."""
    nodes = graph.nodes
    index_of = {v: i for i, v in enumerate(nodes)}
    edge_ids: List[EdgeId] = []
    edge_u: List[int] = []
    edge_v: List[int] = []
    rows: List[List[int]] = [[] for _ in nodes]
    row_others: List[List[int]] = [[] for _ in nodes]
    degree = [0] * len(nodes)
    for e, (eid, u, v) in enumerate(graph.edges()):
        ui, vi = index_of[u], index_of[v]
        edge_ids.append(eid)
        edge_u.append(ui)
        edge_v.append(vi)
        rows[ui].append(e)
        row_others[ui].append(vi)
        degree[ui] += 1
        degree[vi] += 1
        if vi != ui:
            rows[vi].append(e)
            row_others[vi].append(ui)
    indptr: List[int] = [0]
    inc_edge: List[int] = []
    inc_other: List[int] = []
    for row, others in zip(rows, row_others):
        inc_edge += row
        inc_other += others
        indptr.append(len(inc_edge))
    return {
        "nodes": nodes,
        "index_of": index_of,
        "edge_ids": edge_ids,
        "edge_index_of": {eid: e for e, eid in enumerate(edge_ids)},
        "edge_u": edge_u,
        "edge_v": edge_v,
        "indptr": indptr,
        "inc_edge": inc_edge,
        "inc_other": inc_other,
        "degree": degree,
    }


def canonical_form(
    instance: MigrationInstance,
) -> Tuple[Optional[str], Dict[EdgeId, PairToken]]:
    """``(fingerprint, edge id → token)``, one edge at a time, no memo."""
    graph = instance.graph
    nodes = graph.nodes
    reprs = [repr(v) for v in nodes]
    names = sorted(set(reprs))
    rank_of_name = {r: i for i, r in enumerate(names)}
    rank = {v: rank_of_name[r] for v, r in zip(nodes, reprs)}
    width = len(names)
    edges: Iterable[Tuple[EdgeId, Node, Node]] = graph.edges()
    ids = graph.edge_ids()
    if ids != sorted(ids):
        edges = sorted(edges)
    count: Dict[int, int] = {}
    token_of: Dict[EdgeId, PairToken] = {}
    for eid, u, v in edges:
        a, b = rank[u], rank[v]
        if b < a:
            a, b = b, a
        pair = a * width + b
        k = count.get(pair, 0)
        count[pair] = k + 1
        token_of[eid] = (names[a], names[b], k)
    fp: Optional[str] = None
    if width == len(reprs):
        payload = {
            "nodes": sorted(
                [r, instance.capacity(v)] for v, r in zip(nodes, reprs)
            ),
            "edges": [
                [names[pair // width], names[pair % width], n]
                for pair, n in sorted(count.items())
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        fp = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return fp, token_of


def canonical_order(
    instance: MigrationInstance, rounds: Sequence[Sequence[EdgeId]]
) -> List[List[EdgeId]]:
    """Each non-empty round's ids in token order, by way of tokens."""
    return rehydrate_rounds(instance, canonicalize_rounds(instance, rounds))


def validate(rounds: Sequence[Sequence[EdgeId]], instance: MigrationInstance) -> None:
    """``MigrationSchedule.validate``, one edge at a time."""
    seen: Dict[EdgeId, int] = {}
    for i, rnd in enumerate(rounds):
        for eid in rnd:
            if not instance.graph.has_edge_id(eid):
                raise ScheduleValidationError(f"round {i} schedules unknown edge {eid}")
            if eid in seen:
                raise ScheduleValidationError(
                    f"edge {eid} scheduled twice (rounds {seen[eid]} and {i})"
                )
            seen[eid] = i
    missing = [eid for eid in instance.graph.edge_ids() if eid not in seen]
    if missing:
        raise ScheduleValidationError(
            f"{len(missing)} items never migrated, e.g. {missing[:5]}"
        )
    for i, rnd in enumerate(rounds):
        loads: Dict[Node, int] = {}
        for eid in rnd:
            u, v = instance.graph.endpoints(eid)
            loads[u] = loads.get(u, 0) + 1
            loads[v] = loads.get(v, 0) + 1
        for v, load in loads.items():
            if load > instance.capacity(v):
                raise ScheduleValidationError(
                    f"round {i}: disk {v!r} performs {load} transfers "
                    f"but c_v = {instance.capacity(v)}"
                )


def verify_schedule(
    instance: MigrationInstance, rounds: Sequence[Sequence[EdgeId]]
) -> int:
    """``checks.certify.verify_schedule``, one edge at a time."""
    occurrences: Dict[EdgeId, int] = {}
    for rnd in rounds:
        for eid in rnd:
            occurrences[eid] = occurrences.get(eid, 0) + 1

    known = set(instance.graph.edge_ids())
    unknown = sorted(eid for eid in occurrences if eid not in known)
    if unknown:
        raise CertificationError(f"unknown edge ids scheduled: {unknown[:5]}")
    duplicated = sorted(eid for eid, n in occurrences.items() if n > 1)
    if duplicated:
        raise CertificationError(
            f"edges scheduled more than once: {duplicated[:5]}"
        )
    missing = sorted(eid for eid in known if eid not in occurrences)
    if missing:
        raise CertificationError(
            f"{len(missing)} edges never scheduled, e.g. {missing[:5]}"
        )

    nonempty = 0
    for index, rnd in enumerate(rounds):
        if len(rnd) == 0:
            continue
        nonempty += 1
        load: Dict[Node, int] = {}
        for eid in rnd:
            u, v = instance.graph.endpoints(eid)
            load[u] = load.get(u, 0) + 1
            load[v] = load.get(v, 0) + 1 if u != v else load[u] + 1
        for v, used in load.items():
            if used > instance.capacity(v):
                raise CertificationError(
                    f"round {index}: disk {v!r} performs {used} transfers "
                    f"but c_v = {instance.capacity(v)}"
                )
    return nonempty
