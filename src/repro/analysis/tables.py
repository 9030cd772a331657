"""Plain-text tables for the benchmark harness.

The benches print the same rows a paper table would carry; this tiny
renderer keeps them aligned and dependency-free.
"""

from __future__ import annotations

from typing import Any, List, Sequence


class Table:
    """Column-aligned ASCII table with a title."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self._rows: List[List[str]] = []

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self._rows.append([self._fmt(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [f"== {self.title} ==", header, sep]
        for row in self._rows:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - deliberate, reads naturally
        print()
        print(self.render())

    @property
    def rows(self) -> List[List[str]]:
        return [list(r) for r in self._rows]
