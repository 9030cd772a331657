"""Tests for the approximation-gap harness and BENCH_EXACT plumbing."""

import json

from repro.exact.gap import (
    BENCH_SCHEMA,
    FAMILIES,
    HEURISTIC_METHODS,
    QUICK_SEEDS,
    canonical_json,
    collect_gap_metrics,
    render_gap_table,
    run_gap,
    sweep_instance,
)
from repro.exact.search import (
    EXACT_SEARCH_EDGE_LIMIT,
    EXACT_SEARCH_NODE_LIMIT,
    instance_digest,
)


class TestCorpus:
    def test_has_at_least_six_families(self):
        assert len(FAMILIES) >= 6
        assert len({f.name for f in FAMILIES}) == len(FAMILIES)

    def test_every_family_inside_exact_caps(self):
        for family in FAMILIES:
            for seed in QUICK_SEEDS:
                inst = family.factory(seed)
                assert inst.num_items <= EXACT_SEARCH_EDGE_LIMIT, family.name
                assert inst.num_disks <= EXACT_SEARCH_NODE_LIMIT, family.name

    def test_factories_are_deterministic(self):
        for family in FAMILIES:
            a = family.factory(0)
            b = family.factory(0)
            assert instance_digest(a) == instance_digest(b), family.name


class TestSweep:
    def test_sweep_instance_shape(self):
        case = sweep_instance(FAMILIES[0].factory(0))
        assert case["lower_bound"] <= case["optimal"]
        assert case["proof"] in ("matching-lb", "exhausted-frontier")
        for method in HEURISTIC_METHODS:
            row = case["heuristics"][method]
            assert row["rounds"] >= case["optimal"]
            assert row["ratio"] >= 1.0

    def test_quick_metrics_deterministic_bytes(self):
        first = canonical_json(collect_gap_metrics(quick=True))
        second = canonical_json(collect_gap_metrics(quick=True))
        assert first == second

    def test_class2_family_exercises_exhausted_frontier(self):
        metrics = collect_gap_metrics(quick=True)
        proofs = {
            case["proof"]
            for family in metrics["families"].values()
            for case in family["cases"]
        }
        assert "exhausted-frontier" in proofs

    def test_render_table_lists_every_family(self):
        metrics = collect_gap_metrics(quick=True)
        table = render_gap_table(metrics)
        for family in FAMILIES:
            assert family.name in table


class TestRunGap:
    def test_report_and_bench(self, tmp_path):
        report = tmp_path / "gap.json"
        bench = tmp_path / "BENCH_EXACT.json"
        metrics, code = run_gap(
            quick=True, report_path=str(report), bench_path=str(bench)
        )
        assert code == 0
        assert json.loads(report.read_text()) == metrics
        data = json.loads(bench.read_text())
        assert data["schema"] == BENCH_SCHEMA
        assert len(data["entries"]) == 1
        assert data["entries"][0]["metrics"] == metrics

    def test_bench_refresh_is_idempotent(self, tmp_path, monkeypatch):
        """At a clean commit a second run replaces that commit's entry."""
        monkeypatch.setattr(
            "repro.analysis.bench.bench_commit", lambda _repo: "0123abcd" * 5
        )
        bench = tmp_path / "BENCH_EXACT.json"
        run_gap(quick=True, bench_path=str(bench))
        first = bench.read_text()
        run_gap(quick=True, bench_path=str(bench))
        assert bench.read_text() == first
        assert len(json.loads(first)["entries"]) == 1

    def test_bench_outside_git_replaces_nothing(self, tmp_path, monkeypatch):
        """``unknown`` entries need not have measured the same code, so
        each run outside git adds one (the shared writer's rule)."""
        monkeypatch.setattr(
            "repro.analysis.bench.bench_commit", lambda _repo: "unknown"
        )
        bench = tmp_path / "BENCH_EXACT.json"
        run_gap(quick=True, bench_path=str(bench))
        run_gap(quick=True, bench_path=str(bench))
        entries = json.loads(bench.read_text())["entries"]
        assert [e["commit"] for e in entries] == ["unknown", "unknown"]
