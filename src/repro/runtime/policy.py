"""Failure-handling policy: the retry → defer → replan ladder.

When a transfer attempt fails, the executor asks the policy what to do
next, based on how often this item has already failed:

1. **retry** — up to ``max_retries`` consecutive failures are retried
   with exponential backoff (measured in *rounds*, with seeded jitter
   so retry storms decorrelate deterministically);
2. **defer** — once retries are exhausted the transfer is pushed to
   the end of the schedule (``max_defers`` times, each with a fresh
   retry budget), giving transient conditions — e.g. a network
   partition — time to clear;
3. **replan** — a transfer that survives neither retries nor deferrals
   escalates: the executor rebuilds the residual transfer graph and
   asks the canonical :func:`repro.plan` pipeline for a new schedule.

A per-attempt ``transfer_timeout`` (simulated time) turns pathological
slow transfers into failures that climb the same ladder.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional


class EscalationAction(enum.Enum):
    """What to do with a transfer that just failed."""

    RETRY = "retry"
    DEFER = "defer"
    REPLAN = "replan"


@dataclass
class RetryPolicy:
    """Tunable knobs of the escalation ladder.

    Attributes:
        max_retries: consecutive failed attempts before the transfer
            is deferred instead of retried.
        max_defers: deferrals before the transfer escalates to a
            replan.  Each deferral resets the retry budget.
        backoff_base: backoff after the first failure, in rounds.
        backoff_factor: multiplicative growth per consecutive failure.
        backoff_cap: upper bound on the deterministic part, in rounds.
        jitter: adds ``uniform(0, jitter)`` rounds from the executor's
            seeded RNG; 0 disables.
        transfer_timeout: per-attempt simulated-time budget; an
            attempt whose modelled duration exceeds it counts as a
            failure with reason ``"timeout"``.  ``None`` disables.
    """

    max_retries: int = 3
    max_defers: int = 1
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap: float = 8.0
    jitter: float = 0.5
    transfer_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.max_defers < 0:
            raise ValueError("max_retries and max_defers must be >= 0")
        backoff = (self.backoff_base, self.backoff_factor, self.backoff_cap)
        if not all(math.isfinite(x) for x in backoff) or (
            self.backoff_base <= 0 or self.backoff_factor < 1 or self.backoff_cap <= 0
        ):
            raise ValueError("backoff parameters must be finite and positive (factor >= 1)")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValueError("jitter must be a finite number >= 0")
        timeout = self.transfer_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError("transfer_timeout must be a finite number > 0, or None")

    # ------------------------------------------------------------------
    def decide(self, attempts: int, defers: int) -> EscalationAction:
        """Next rung of the ladder after the ``attempts``-th failure.

        ``attempts`` counts consecutive failures since the last
        deferral (the executor resets it on defer); ``defers`` counts
        deferrals over the transfer's whole life.
        """
        if attempts <= self.max_retries:
            return EscalationAction.RETRY
        if defers < self.max_defers:
            return EscalationAction.DEFER
        return EscalationAction.REPLAN

    def backoff_rounds(self, attempts: int, rng) -> int:
        """How many rounds to wait before retry number ``attempts``."""
        raw = min(
            self.backoff_base * self.backoff_factor ** max(attempts - 1, 0),
            self.backoff_cap,
        )
        if self.jitter > 0:
            raw += rng.uniform(0.0, self.jitter)
        return max(1, math.ceil(raw))
