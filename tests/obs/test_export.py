"""Tests for trace exporters (repro.obs.export)."""

import json

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    InMemoryExporter,
    JsonlExporter,
    MetricsRegistry,
    Tracer,
    load_trace,
    write_prometheus,
)
from repro.obs.schema import validate_trace


class TestJsonlExporter:
    def test_fresh_file_starts_with_meta_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.close()
        (meta,) = load_trace(str(path))
        assert meta == {
            "kind": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "source": "repro.obs",
        }

    def test_round_trip_preserves_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(str(path)))
        with tracer.span("outer", method="auto"):
            with tracer.span("inner") as sp:
                sp.set(rounds=4)
        tracer.count("jobs", 2)
        tracer.close()

        records = load_trace(str(path))
        assert validate_trace(records) == []
        by_name = {r["name"]: r for r in records if r.get("kind") == "span"}
        assert by_name["inner"]["attrs"] == {"rounds": 4}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert {"kind": "counter", "name": "jobs", "value": 2} in records

    def test_keys_are_sorted_on_disk(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(str(path)))
        with tracer.span("s"):
            pass
        tracer.close()
        for line in path.read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_append_mode_skips_duplicate_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = Tracer(JsonlExporter(str(path)))
        with first.span("run1"):
            pass
        first.close()
        second = Tracer(JsonlExporter(str(path), append=True))
        with second.span("run2"):
            pass
        second.close()

        records = load_trace(str(path))
        assert sum(1 for r in records if r["kind"] == "meta") == 1
        names = [r["name"] for r in records if r["kind"] == "span"]
        assert names == ["run1", "run2"]
        # The second process numbers its spans after the first's.
        assert validate_trace(records) == []

    def test_append_mode_offsets_parent_links(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            tracer = Tracer(JsonlExporter(str(path), append=True))
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            tracer.close()

        spans = [r for r in load_trace(str(path)) if r["kind"] == "span"]
        assert [(r["name"], r["span"], r["parent"]) for r in spans] == [
            ("inner", 2, 1), ("outer", 1, None),
            ("inner", 4, 3), ("outer", 3, None),
        ]

    def test_append_mode_drops_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = Tracer(JsonlExporter(str(path)))
        with first.span("run1"):
            with first.span("kept"):
                pass
        first.close()
        # A killed writer's last record, cut mid-line.
        with open(path, "a") as handle:
            handle.write('{"attrs": {}, "kind": "span", "na')
        second = Tracer(JsonlExporter(str(path), append=True))
        with second.span("run2"):
            pass
        second.close()

        records = load_trace(str(path))
        assert [r["name"] for r in records if r["kind"] == "span"] == [
            "kept", "run1", "run2",
        ]
        assert validate_trace(records) == []

    def test_append_mode_terminates_a_whole_last_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = Tracer(JsonlExporter(str(path)))
        with first.span("run1"):
            with first.span("child"):
                pass
        first.close()
        # The writer died after the record but before its newline.
        path.write_text(path.read_text()[:-1])
        second = Tracer(JsonlExporter(str(path), append=True))
        with second.span("run2"):
            pass
        second.close()

        records = load_trace(str(path))
        assert [r["name"] for r in records if r["kind"] == "span"] == [
            "child", "run1", "run2",
        ]
        assert validate_trace(records) == []

    def test_append_after_torn_header_writes_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "me')
        JsonlExporter(str(path), append=True).close()
        assert load_trace(str(path)) == [
            {"kind": "meta", "schema": TRACE_SCHEMA_VERSION, "source": "repro.obs"}
        ]

    def test_append_to_missing_file_writes_header(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        JsonlExporter(str(path), append=True).close()
        assert load_trace(str(path))[0]["kind"] == "meta"

    def test_non_json_attr_values_are_stringified(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(str(path)))
        with tracer.span("s") as sp:
            sp.set(where=frozenset({"a"}))
        tracer.close()
        (span,) = [r for r in load_trace(str(path)) if r["kind"] == "span"]
        assert isinstance(span["attrs"]["where"], str)


class TestInMemoryExporter:
    def test_collects_in_order_and_filters_spans(self):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter)
        with tracer.span("a"):
            pass
        tracer.count("n")
        tracer.close()
        assert [r["kind"] for r in exporter.records] == ["span", "counter"]
        assert [r["name"] for r in exporter.spans()] == ["a"]
        assert exporter.closed


class TestWritePrometheus:
    def test_writes_text_exposition(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("retries").inc(3)
        path = tmp_path / "metrics.prom"
        write_prometheus(reg, str(path))
        assert path.read_text() == (
            "# TYPE repro_retries counter\nrepro_retries 3\n"
        )
