"""Unit tests for repro.util.tables."""

from __future__ import annotations

import pytest

from repro.util import tables


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = tables.format_table(["a", "b"], [[1, 2.5], [3, 4.25]])
        assert "a" in text and "b" in text
        assert "2.500" in text and "4.250" in text

    def test_title_rendered(self):
        text = tables.format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            tables.format_table(["a", "b"], [[1]])

    def test_precision_respected(self):
        text = tables.format_table(["v"], [[3.14159]], precision=1)
        assert "3.1" in text and "3.14" not in text

    def test_column_alignment(self):
        text = tables.format_table(["name", "value"], [["x", 1], ["longer", 2]])
        lines = text.splitlines()
        assert len(set(len(line) for line in lines[:2])) == 1


class TestFormatSeriesChart:
    def test_contains_marker_and_legend(self):
        text = tables.format_series_chart([0, 1, 2], {"power": [10.0, 20.0, 15.0]})
        assert "* = power" in text
        assert "*" in text

    def test_multiple_series_get_distinct_markers(self):
        text = tables.format_series_chart(
            [0, 1], {"one": [1.0, 2.0], "two": [2.0, 1.0]}
        )
        assert "* = one" in text and "o = two" in text

    def test_empty_series_returns_title(self):
        assert tables.format_series_chart([], {}, title="t") == "t"

    def test_constant_series_does_not_crash(self):
        text = tables.format_series_chart([0, 1, 2], {"flat": [5.0, 5.0, 5.0]})
        assert "flat" in text

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            tables.format_series_chart([0], {"s": [1.0]}, width=2, height=2)


class TestFormatKv:
    def test_alignment_and_values(self):
        text = tables.format_kv({"short": 1, "much_longer_key": 2.5})
        lines = text.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_empty_returns_title(self):
        assert tables.format_kv({}, title="hello") == "hello"
