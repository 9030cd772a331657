"""Tests for coloring helper utilities not covered elsewhere."""

from repro.graphs.coloring.base import inherit_palette


class TestInheritPalette:
    def test_disjoint_offsets(self):
        merged = inherit_palette({0: {10: 0, 11: 1}, 1: {20: 0}})
        assert merged[10] == 0
        assert merged[11] == 1
        assert merged[20] == 2  # shifted above part 0's palette

    def test_part_order_is_by_key(self):
        merged = inherit_palette({1: {20: 0}, 0: {10: 0}})
        assert merged[10] == 0
        assert merged[20] == 1

    def test_empty_parts_skipped(self):
        merged = inherit_palette({0: {}, 1: {5: 0}})
        assert merged == {5: 0}
