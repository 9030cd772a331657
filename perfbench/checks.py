"""Output checks, run outside every timed region.

Each check returns a list of problems (empty means the output passed),
so a workload can count an op as failed without stopping the run.  The
checks use the program's independent certifier
(:mod:`repro.checks.certify`), which recounts loads and witnesses from
the instance alone, plus the benchmark's own ledger of directed moves.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import MigrationInstance
from repro.checks.certify import (
    CertificationError,
    rounds_digest,
    verify_certificate,
    verify_patch_certificate,
    verify_schedule,
)
from repro.core.errors import ScheduleValidationError

Move = Tuple[str, str]


def check_schedule(instance: MigrationInstance, schedule: Any) -> List[str]:
    """Every item moved exactly once and no disk over ``c_v``, checked
    twice: by the schedule's own validator and the independent one."""
    problems: List[str] = []
    try:
        schedule.validate(instance)
    except ScheduleValidationError as exc:
        problems.append(f"validate: {exc}")
    try:
        verify_schedule(instance, schedule.rounds)
    except CertificationError as exc:
        problems.append(f"verify_schedule: {exc}")
    return problems


def check_certificate(
    instance: MigrationInstance, certificate: Any, claimed: Optional[int]
) -> Tuple[List[str], int]:
    """Re-derive the lower bound from the certificate's witnesses.

    Returns ``(problems, verified bound)``; the bound is 0 when the
    certificate does not verify."""
    if certificate is None:
        return ["no certificate"], 0
    try:
        bound = verify_certificate(instance, certificate)
    except CertificationError as exc:
        return [f"verify_certificate: {exc}"], 0
    if claimed is not None and claimed != bound:
        return [f"lower bound {claimed} but certificate proves {bound}"], 0
    return [], bound


def check_plan(instance: MigrationInstance, result: Any) -> Tuple[List[str], int]:
    """A certified ``repro.plan`` result: schedule plus certificate."""
    problems = check_schedule(instance, result.schedule)
    cert_problems, bound = check_certificate(
        instance, result.certificate, result.lower_bound
    )
    return problems + cert_problems, bound


def check_patch(prior: Any, delta: Any, result: Any) -> List[str]:
    """The patch certificate binds (prior, delta, result)."""
    try:
        verify_patch_certificate(
            result.patch_certificate,
            prior.schedule.rounds,
            delta.canonical_payload(),
            result.schedule.rounds,
        )
    except (CertificationError, AttributeError) as exc:
        return [f"verify_patch_certificate: {exc}"]
    return []


def check_same_bytes(label: str, expected: Sequence[Any], actual: Sequence[Any]) -> List[str]:
    if rounds_digest(expected) != rounds_digest(actual):
        return [f"{label}: schedule bytes differ"]
    return []


def directed_moves(instance: MigrationInstance) -> Counter:
    """The instance's ``(src, dst)`` move multiset."""
    return Counter((u, v) for _eid, u, v in instance.graph.edges())


def check_directed_change(
    before: Counter, after: Counter, removed: Iterable[Move], added: Iterable[Move]
) -> List[str]:
    """The program's edit of the directed move multiset equals the
    ledger's: exactly ``removed`` went away and ``added`` arrived.

    Judging each tick's own change (rather than the running totals)
    pins a fault on the tick that caused it."""
    expected: Dict[Move, int] = Counter(added)
    expected.subtract(Counter(removed))
    actual: Dict[Move, int] = Counter(after)
    actual.subtract(before)
    want = {m: n for m, n in expected.items() if n}
    got = {m: n for m, n in actual.items() if n}
    if want == got:
        return []
    wrong = sorted(set(want.items()) ^ set(got.items()))
    return [f"directed moves differ from the ledger at {len(wrong)} entries, e.g. {wrong[:2]}"]
