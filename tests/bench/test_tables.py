"""Unit tests for table rendering and seed aggregation."""

from __future__ import annotations

import pytest

from repro.bench.runner import BestOfStarts, RowResult
from repro.bench.tables import aggregate_rows, render_paper_table
from repro.obs.ascii import render_generic_table


def _cell(cut, seconds):
    return BestOfStarts(
        cut=cut, seconds=seconds, start_cuts=(cut,), start_seconds=(seconds,)
    )


def _row(label, expected_b, **cuts_times):
    cells = {name: _cell(*ct) for name, ct in cuts_times.items()}
    return RowResult(label=label, expected_b=expected_b, cells=cells)


class TestGenericTable:
    def test_alignment_and_content(self):
        text = render_generic_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert all(len(line) == len(lines[1]) for line in lines[2:])

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_generic_table(["a"], [[1, 2]])


class TestPaperTable:
    def test_full_layout(self):
        row = _row("g", 8, sa=(20, 2.0), csa=(10, 1.0), kl=(16, 0.5), ckl=(8, 0.4))
        text = render_paper_table("demo", [row])
        assert "demo" in text
        assert "50.0" in text  # both SA and KL improvements are 50%
        assert "8" in text

    def test_missing_pair_rendered_as_dash(self):
        row = _row("g", 4, kl=(10, 1.0), ckl=(5, 0.5))
        text = render_paper_table("demo", [row])
        assert "-" in text

    def test_label_used_when_no_expected_b(self):
        row = _row("ladder(100)", None, kl=(4, 1.0), ckl=(2, 0.5))
        text = render_paper_table("demo", [row], base_pairs=(("kl", "ckl"),))
        assert "ladder(100)" in text


class TestAggregateRows:
    def test_groups_by_label(self):
        rows = [
            _row("a", 4, kl=(10, 1.0)),
            _row("a", 4, kl=(20, 3.0)),
            _row("b", 8, kl=(5, 1.0)),
        ]
        agg = aggregate_rows(rows)
        assert [r.label for r in agg] == ["a", "b"]
        assert agg[0].cells["kl"].cut == pytest.approx(15.0)
        assert agg[0].cells["kl"].seconds == pytest.approx(2.0)

    def test_single_rows_pass_through(self):
        rows = [_row("a", 4, kl=(10, 1.0))]
        assert aggregate_rows(rows)[0] is rows[0]

    def test_conflicting_expected_b_rejected(self):
        rows = [_row("a", 4, kl=(10, 1.0)), _row("a", 6, kl=(10, 1.0))]
        with pytest.raises(ValueError):
            aggregate_rows(rows)

    def test_preserves_order(self):
        rows = [
            _row("z", 1, kl=(1, 1.0)),
            _row("a", 2, kl=(1, 1.0)),
            _row("z", 1, kl=(3, 1.0)),
        ]
        assert [r.label for r in aggregate_rows(rows)] == ["z", "a"]
