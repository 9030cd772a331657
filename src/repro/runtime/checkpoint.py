"""Checkpointing: JSON snapshot/restore of executor state.

A checkpoint captures everything a killed run needs to resume exactly
— round index, the remaining work queue, completed moves (as the full
layout), retry/defer counters, triggered crashes, telemetry totals and
the RNG state — plus an opaque ``config`` block the caller uses to
refuse resuming under a different run configuration (the CLI stores
scenario, seed, method and the fault plan there).

Files are schema-versioned and written atomically (temp file + rename)
so a crash *during checkpointing* leaves the previous checkpoint
intact.

The determinism contract (see :mod:`repro.runtime.executor`) makes
this strong: a seeded run killed at any round boundary and resumed
from its checkpoint produces the same final layout and telemetry
totals as the same run executed uninterrupted.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cluster.system import StorageCluster
from repro.runtime.executor import MigrationExecutor

SCHEMA_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint file is missing, malformed, or incompatible."""


def save_checkpoint(
    path: str,
    executor: MigrationExecutor,
    config: Optional[Mapping[str, Any]] = None,
) -> None:
    """Atomically write ``executor``'s state (plus ``config``) to ``path``."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": dict(config or {}),
        "state": executor.get_state(),
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".checkpoint-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Read and validate a checkpoint; returns ``(config, state)``."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint at {path}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise CheckpointError(f"{path} is not a runtime checkpoint")
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} uses checkpoint schema {version}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    if "state" not in payload:
        raise CheckpointError(f"{path} has no state block")
    return payload.get("config", {}), payload["state"]


def restore_executor(
    cluster: StorageCluster,
    state: Mapping[str, Any],
    **kwargs: Any,
) -> MigrationExecutor:
    """Rebuild an executor from a loaded checkpoint state.

    ``cluster`` must be reconstructed the same way as the interrupted
    run built it (same scenario and seed); remaining keyword arguments
    are forwarded to :meth:`MigrationExecutor.from_state` (faults,
    policy, rate model, method, seed, ...) and must also match the original
    run for the determinism guarantee to hold — which is why callers
    should persist them in the ``config`` block and compare before
    resuming.
    """
    try:
        return MigrationExecutor.from_state(cluster, state, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot restore executor state: {exc}") from exc
