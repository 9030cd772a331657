"""Shared helpers for the benchmark harness.

Each ``bench_*`` module reproduces one experiment row of DESIGN.md's
index: it prints the experiment's table (the "paper rows") and times a
representative kernel with pytest-benchmark.

pytest captures test output, so tables are buffered and flushed through
``pytest_terminal_summary`` — they appear below the benchmark timing
table on every ``pytest benchmarks/ --benchmark-only`` run — and are
also archived to ``benchmarks/results/experiments.txt``.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import subprocess
from typing import Callable, Dict, List

import pytest

from repro.analysis.tables import Table

_RESULTS: List[str] = []
_RESULTS_FILE = pathlib.Path(__file__).parent / "results" / "experiments.txt"


def emit(table: Table) -> None:
    """Queue a table for the end-of-run experiment report."""
    _RESULTS.append(table.render())


def emit_line(text: str) -> None:
    _RESULTS.append(text)


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
    read_commit: Callable[[pathlib.Path], str] = bench_commit,
) -> Dict[str, object]:
    """Append one entry to the commit-keyed bench record at ``path``.

    An entry of a clean commit replaces the entry that commit already
    has.  A ``+dirty`` or ``unknown`` entry replaces nothing: two of
    them need not have measured the same code.
    """
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"schema": schema, "entries": []}
    entry: Dict[str, object] = {
        "commit": read_commit(path.parent),
        "date": datetime.date.today().isoformat(),
        "metrics": metrics,
    }
    entries = data["entries"]
    commit = str(entry["commit"])
    if commit != "unknown" and not commit.endswith("+dirty"):
        entries = [e for e in entries if e.get("commit") != commit]
    entries.append(entry)
    data["entries"] = entries
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return entry


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("experiment tables (see DESIGN.md / EXPERIMENTS.md)")
    body = "\n\n".join(_RESULTS)
    terminalreporter.write_line(body)
    _RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    _RESULTS_FILE.write_text(body + "\n")
    terminalreporter.write_line(f"\n[archived to {_RESULTS_FILE}]")
