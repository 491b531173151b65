"""Unit tests for the one-shot markdown report generator."""

from __future__ import annotations

import pytest

from repro.bench.report import generate_report
from repro.bench.workloads import Scale

TINY = Scale(
    name="tiny",
    random_graph_sizes=(60,),
    seeds_per_point=1,
    gnp_seeds_per_point=1,
    starts=1,
    sa_size_factor=1,
    special_sizes=(36,),
    gbreg_widths=(2,),
    g2set_widths=(4,),
)


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(TINY, rng=1, include_sa=False)

    def test_contains_all_sections(self, report):
        for title in (
            "Gbreg(2n, b, 3)",
            "Gbreg(2n, b, 4)",
            "G2set average degree 2.5",
            "Gnp degree sweep",
            "Ladder graphs",
            "Grid graphs",
            "Binary trees",
            "Headline summary",
        ):
            assert title in report, title

    def test_kl_only_omits_sa(self, report):
        assert "bkl" in report
        assert "bsa" not in report

    def test_scale_header(self, report):
        assert "**tiny**" in report

    def test_markdown_fences_paired(self, report):
        assert report.count("```") % 2 == 0

    def test_deterministic_cuts(self):
        import re

        a = generate_report(TINY, rng=2, include_sa=False)
        b = generate_report(TINY, rng=2, include_sa=False)
        # Times (and the time-derived speedup %) legitimately vary between
        # runs; every float in the report is one of those, so mask them —
        # and collapse whitespace, since column padding tracks time width.
        def mask(t: str) -> str:
            return re.sub(r"\s+", " ", re.sub(r"-?\d+\.\d+", "X", t))

        assert mask(a) == mask(b)

    def test_with_sa_includes_sa_columns(self):
        text = generate_report(TINY, rng=3, include_sa=True)
        assert "bsa" in text
        assert "bcsa" in text
