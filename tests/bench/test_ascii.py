"""Unit tests for the ASCII visualization helpers."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.ascii import histogram, horizontal_bars, sparkline


class TestSparkline:
    def test_monotone(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_length_preserved(self, values):
        assert len(sparkline(values)) == len(values)


class TestHorizontalBars:
    def test_scaling(self):
        text = horizontal_bars(["a", "bb"], [2, 4], width=4)
        lines = text.splitlines()
        assert lines[0].startswith(" a ##")
        assert lines[1].startswith("bb ####")

    def test_zero_value_has_no_bar(self):
        text = horizontal_bars(["x", "y"], [0, 3], width=3)
        assert "###" in text

    def test_empty(self):
        assert horizontal_bars([], []) == ""

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            horizontal_bars(["a"], [1, 2])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            horizontal_bars(["a"], [-1])


class TestHistogram:
    def test_buckets(self):
        text = histogram([0, 0, 0, 9, 9], bins=2, width=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "3" in lines[0]
        assert "2" in lines[1]

    def test_constant_values(self):
        text = histogram([4, 4], bins=5)
        assert "2" in text

    def test_empty(self):
        assert histogram([]) == ""

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=12),
    )
    @example([0.0, 5e-324], 2)  # a range too narrow for its bucket width
    @settings(max_examples=30, deadline=None)
    def test_counts_sum_to_n(self, values, bins):
        text = histogram(values, bins=bins)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in text.splitlines())
        assert total == len(values)
