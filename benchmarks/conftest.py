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

import pathlib
from typing import List

from repro.analysis.bench import append_bench_entry, bench_commit  # noqa: F401  (the benches' record writer)
from repro.analysis.tables import Table

_RESULTS: List[str] = []
_RESULTS_FILE = pathlib.Path(__file__).parent / "results" / "experiments.txt"


def emit(table: Table) -> None:
    """Queue a table for the end-of-run experiment report."""
    _RESULTS.append(table.render())


def emit_line(text: str) -> None:
    _RESULTS.append(text)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("experiment tables (see DESIGN.md / EXPERIMENTS.md)")
    body = "\n\n".join(_RESULTS)
    terminalreporter.write_line(body)
    _RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    _RESULTS_FILE.write_text(body + "\n")
    terminalreporter.write_line(f"\n[archived to {_RESULTS_FILE}]")
