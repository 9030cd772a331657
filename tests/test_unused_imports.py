"""No module under ``src/repro`` imports a name it never uses.

The determinism linter (``check --lint``) does not look at imports, so
this scan is the gate.  A package ``__init__.py`` imports to re-export
and is skipped; an import kept for a reason the code does not show (a
benchmark wraps it as a module attribute) carries ``# noqa: F401`` and
that reason.  A name counts as used when the module reads it, or names
it in a string that parses as an expression: a quoted annotation, or
``cast("LoweredSolveFn", ...)``.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List, Set, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _used_names(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # prose, or a NUL byte
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if any("noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                continue
            name = (alias.asname or alias.name).partition(".")[0]
            if name not in used:
                found.append((name, alias.lineno))
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from typing import List, Optional\nx: List[int] = []\n", [("Optional", 1)]),
        ("import os.path\n", [("os", 1)]),
        ("import os.path\nos.path.join('a')\n", []),
        ("from m import f  # noqa: F401  (re-exported)\n", []),
        ("from m import (\n    f,  # noqa: F401\n    g,\n)\n", [("g", 3)]),
        ('from typing import cast\nfrom m import Fn\ny = cast("Fn", None)\n', []),
        ('from m import Fn\n"""Fn is named in prose only."""\n', [("Fn", 1)]),
        ("from __future__ import annotations\n", []),
    ],
    ids=["unused", "dotted", "dotted-used", "noqa", "noqa-one-alias",
         "string-expression", "prose", "future"],
)
def test_scanner(source, expected):
    assert unused_imports(source) == expected


def test_src_has_no_unused_imports():
    findings = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert findings == []
