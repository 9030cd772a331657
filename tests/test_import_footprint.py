"""Planning loads no third-party package.

The split kernel, the pipeline, the certifier, the server and the CLI
are plain Python; numpy is imported only by the independent fuzz
validator (:mod:`repro.analysis.crossval`).  A fresh interpreter
imports the entry points, plans one all-even, one odd-capacity
bipartite and one mixed instance with certification, so the split
kernel runs through both ``even_optimal`` and the König colorer, and
then reports which of the heavy packages are loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

import repro
import repro.checks.certify
import repro.cli
import repro.serve.server
from repro import MigrationInstance, plan

even_moves = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("c", "d")] * 3
even_caps = {"a": 2, "b": 4, "c": 2, "d": 2}
bipartite = MigrationInstance.from_moves(
    [(f"o{k % 3}", f"n{k % 4}") for k in range(24)],
    {**{f"o{i}": 1 for i in range(3)}, **{f"n{j}": 3 for j in range(4)}},
)
mixed = MigrationInstance.from_moves(
    even_moves + [("x", "y"), ("y", "z"), ("z", "x")] * 2,
    {**even_caps, "x": 1, "y": 1, "z": 3},
)
methods = set()
for inst in (MigrationInstance.from_moves(even_moves, even_caps), bipartite, mixed):
    methods.update(plan(inst, certify=True).methods_used())
loaded = [name for name in ("numpy", "networkx") if name in sys.modules]
print(json.dumps({"methods": sorted(methods), "loaded": loaded}))
"""


def test_planning_imports_neither_numpy_nor_networkx():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert {"even_optimal", "bipartite_optimal"} <= set(report["methods"])
    assert report["loaded"] == []
