"""The one writer of the commit-keyed bench records (``BENCH_*.json``).

Each record is ``{"schema": ..., "entries": [...]}``; an entry holds
the commit it measured, the date and the metrics.  The benchmark
harness (``benchmarks/``) and ``repro-migrate gap --bench`` append
through :func:`append_bench_entry`.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import subprocess
from typing import Callable, Dict, Optional


def bench_commit(repo: pathlib.Path) -> str:
    """The commit a bench record entry is keyed by.

    HEAD's sha on a clean tree; ``<sha>+dirty`` when tracked files
    differ from HEAD; ``unknown`` outside git (a ``git archive`` copy,
    say).
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=repo, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}+dirty" if dirty else sha


def append_bench_entry(
    path: pathlib.Path,
    schema: str,
    metrics: Dict[str, object],
    read_commit: Optional[Callable[[pathlib.Path], str]] = None,
) -> Dict[str, object]:
    """Append one entry to the commit-keyed bench record at ``path``.

    ``read_commit`` names the commit (default :func:`bench_commit` of
    the record's directory).  An entry of a clean commit replaces the
    entry that commit already has.  A ``+dirty`` or ``unknown`` entry
    replaces nothing: two of them need not have measured the same code.
    """
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"schema": schema, "entries": []}
    commit = (read_commit or bench_commit)(path.resolve().parent)
    entry: Dict[str, object] = {
        "commit": commit,
        # Provenance for readers of the record, not part of any metric.
        "date": datetime.date.today().isoformat(),
        "metrics": metrics,
    }
    entries = data["entries"]
    if commit != "unknown" and not commit.endswith("+dirty"):
        entries = [e for e in entries if e.get("commit") != commit]
    entries.append(entry)
    data["entries"] = entries
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return entry
