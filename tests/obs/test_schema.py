"""Tests for the trace schema's record checks (repro.obs.schema)."""

import math

import pytest

from repro.obs.schema import validate_record

#: The attrs a runtime round span carries when its round completes.
ROUND_ATTRS = {
    "round": 3, "attempted": 4, "succeeded": 3, "failed": 1,
    "sim_start": 2.5, "sim_duration": 0.75,
}


def span(name, attrs):
    return {
        "kind": "span", "name": name, "span": 1, "parent": None,
        "t0": 0.0, "wall": 0.5, "cpu": 0.1, "attrs": attrs,
    }


class TestRoundSpanAttrs:
    @pytest.mark.parametrize(
        "attrs", [ROUND_ATTRS, {"round": 0}, {}, {**ROUND_ATTRS, "sim_start": 0}],
        ids=["complete", "killed-mid-round", "empty", "int-time"],
    )
    def test_well_typed_or_missing_attrs_pass(self, attrs):
        assert validate_record(span("runtime.round", attrs), 1) == []

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("attempted", "many", "an int >= 0"),
            ("attempted", True, "an int >= 0"),
            ("failed", 2.7, "an int >= 0"),
            ("succeeded", "3", "an int >= 0"),
            ("round", -1, "an int >= 0"),
            ("sim_start", "0.5", "a finite number >= 0"),
            ("sim_start", True, "a finite number >= 0"),
            ("sim_duration", -1.0, "a finite number >= 0"),
            ("sim_duration", math.nan, "a finite number >= 0"),
            ("sim_duration", math.inf, "a finite number >= 0"),
        ],
        ids=["attempted-str", "attempted-true", "failed-float", "succeeded-str",
             "round-negative", "start-str", "start-true", "duration-negative",
             "duration-nan", "duration-inf"],
    )
    def test_mistyped_attr_is_one_problem(self, key, value, reason):
        record = span("runtime.round", {**ROUND_ATTRS, key: value})
        assert validate_record(record, 1) == [
            f"record 1: round attr {key!r} must be {reason}"
        ]

    def test_other_spans_attrs_are_free_form(self):
        assert validate_record(span("pipeline.plan", {"attempted": "many"}), 1) == []
