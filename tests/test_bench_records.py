"""The commit-keyed bench records (``BENCH_*.json``) have one writer.

``benchmarks.conftest.append_bench_entry`` keys each entry by the
commit it measured.  Only an entry of a clean commit may replace an
earlier one (of that same commit): numbers from an uncommitted tree or
from outside git say nothing about any one commit, so they never
overwrite a recorded entry.
"""

import json
import subprocess

from benchmarks.conftest import append_bench_entry, bench_commit

SHA = "0123456789abcdef0123456789abcdef01234567"


def write(path, commit, value):
    return append_bench_entry(
        path, "bench-test/v1", {"value": value}, read_commit=lambda _repo: commit
    )


def recorded(path):
    return [(e["commit"], e["metrics"]["value"]) for e in json.loads(path.read_text())["entries"]]


class TestAppendBenchEntry:
    def test_clean_commit_replaces_its_own_entry(self, tmp_path):
        path = tmp_path / "BENCH.json"
        write(path, "f" * 40, 0)
        write(path, SHA, 1)
        write(path, SHA, 2)
        assert recorded(path) == [("f" * 40, 0), (SHA, 2)]
        assert json.loads(path.read_text())["schema"] == "bench-test/v1"

    def test_dirty_tree_records_and_replaces_nothing(self, tmp_path):
        path = tmp_path / "BENCH.json"
        write(path, SHA, 1)
        write(path, f"{SHA}+dirty", 2)
        write(path, f"{SHA}+dirty", 3)
        assert recorded(path) == [(SHA, 1), (f"{SHA}+dirty", 2), (f"{SHA}+dirty", 3)]

    def test_outside_git_records_unknown_and_replaces_nothing(self, tmp_path):
        path = tmp_path / "BENCH.json"
        write(path, "unknown", 1)
        write(path, "unknown", 2)
        assert recorded(path) == [("unknown", 1), ("unknown", 2)]


class TestBenchCommit:
    def git(self, repo, *args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    def test_reads_clean_dirty_and_unknown(self, tmp_path):
        assert bench_commit(tmp_path) == "unknown"
        self.git(tmp_path, "init", "-q")
        (tmp_path / "tracked.txt").write_text("a\n")
        self.git(tmp_path, "add", "tracked.txt")
        self.git(tmp_path, "commit", "-q", "-m", "one")
        sha = bench_commit(tmp_path)
        assert len(sha) == 40 and "+" not in sha
        (tmp_path / "untracked.txt").write_text("b\n")
        assert bench_commit(tmp_path) == sha
        (tmp_path / "tracked.txt").write_text("changed\n")
        assert bench_commit(tmp_path) == f"{sha}+dirty"
