"""Unit tests for the CKL/CSA compaction pipeline (paper Section V)."""

from __future__ import annotations

import pytest

from repro.core.matching import heavy_edge_matching
from repro.core.multilevel import multilevel_bisection
from repro.core.pipeline import ckl, coarse_only_bisection, compacted_bisection, csa
from repro.graphs.generators import gbreg, ladder_graph, star_graph
from repro.graphs.graph import Graph
from repro.obs import capture_spans
from repro.partition.annealing import AnnealingSchedule
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin

FAST_SA = AnnealingSchedule(size_factor=2, cooling_ratio=0.9, max_temperatures=50)


class TestCompactedBisection:
    def test_returns_all_stages(self, gbreg_sample):
        result = compacted_bisection(gbreg_sample.graph, kernighan_lin, rng=1)
        assert result.bisection.is_balanced()
        assert result.compaction.coarse.num_vertices < gbreg_sample.graph.num_vertices
        assert result.coarse_result.bisection.graph is result.compaction.coarse
        assert result.final_result.bisection is result.bisection
        assert result.projected_cut == result.coarse_result.bisection.cut

    def test_final_no_worse_than_projection(self, gbreg_sample):
        result = compacted_bisection(gbreg_sample.graph, kernighan_lin, rng=2)
        assert result.cut <= result.projected_cut

    def test_custom_matching_policy(self, gbreg_sample):
        result = compacted_bisection(
            gbreg_sample.graph,
            kernighan_lin,
            rng=3,
            matching_policy=heavy_edge_matching,
        )
        assert result.bisection.is_balanced()

    def test_kwargs_forwarded(self, gbreg_sample):
        result = compacted_bisection(
            gbreg_sample.graph, kernighan_lin, rng=4, max_passes=1
        )
        assert result.final_result.passes <= 1

    def test_works_with_fm(self, gbreg_sample):
        result = compacted_bisection(gbreg_sample.graph, fiduccia_mattheyses, rng=5)
        assert result.bisection.is_balanced()

    def test_deterministic(self, gbreg_sample):
        a = ckl(gbreg_sample.graph, rng=6)
        b = ckl(gbreg_sample.graph, rng=6)
        assert a.cut == b.cut


class TestCKL:
    def test_finds_planted_on_sparse_gbreg(self):
        # The paper's headline: plain KL misses badly on degree-3 Gbreg,
        # CKL recovers the planted bisection (or very close).
        sample = gbreg(200, b=6, d=3, rng=2)
        plain = kernighan_lin(sample.graph, rng=3)
        compacted = ckl(sample.graph, rng=3)
        assert compacted.cut <= sample.planted_width + 4
        assert compacted.cut < plain.cut

    def test_ladder_improvement(self):
        g = ladder_graph(50)
        plain = min(kernighan_lin(g, rng=s).cut for s in range(2))
        compacted = min(ckl(g, rng=s).cut for s in range(2))
        assert compacted <= plain


class TestCSA:
    def test_balanced_result(self, gbreg_sample):
        result = csa(gbreg_sample.graph, rng=8, schedule=FAST_SA)
        assert result.bisection.is_balanced()

    def test_schedule_forwarded(self, gbreg_sample):
        result = csa(gbreg_sample.graph, rng=9, schedule=FAST_SA)
        assert result.final_result.temperatures <= FAST_SA.max_temperatures

    def test_near_planted_on_small_gbreg(self):
        sample = gbreg(100, b=4, d=3, rng=10)
        result = csa(sample.graph, rng=11, schedule=FAST_SA)
        assert result.cut <= 12


class TestCoarseOnly:
    def test_steps_1_to_4_only(self, gbreg_sample):
        result = coarse_only_bisection(gbreg_sample.graph, kernighan_lin, rng=20)
        assert result.bisection.is_balanced()
        # Without the refinement step the result IS the projection
        # (modulo the rebalance repair).
        assert result.cut <= result.projected_cut + 4

    def test_refinement_only_improves(self, gbreg_sample):
        coarse = coarse_only_bisection(gbreg_sample.graph, kernighan_lin, rng=21)
        full = compacted_bisection(gbreg_sample.graph, kernighan_lin, rng=21)
        assert full.cut <= coarse.cut

    def test_beats_plain_kl_on_sparse(self):
        sample = gbreg(300, 8, 3, rng=22)
        plain = kernighan_lin(sample.graph, rng=23).cut
        coarse = coarse_only_bisection(sample.graph, kernighan_lin, rng=23).cut
        assert coarse < plain

    def test_deterministic(self, gbreg_sample):
        a = coarse_only_bisection(gbreg_sample.graph, kernighan_lin, rng=24)
        b = coarse_only_bisection(gbreg_sample.graph, kernighan_lin, rng=24)
        assert a.cut == b.cut


class TestEdgeCases:
    def test_tiny_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        result = ckl(g, rng=1)
        assert result.bisection.is_balanced()

    def test_disconnected_graph(self):
        g = Graph.from_edges([(0, 1), (2, 3), (4, 5), (6, 7)])
        result = ckl(g, rng=2)
        assert result.cut == 0

    def test_dense_graph_compacts_fine(self):
        from repro.graphs.generators import complete_graph

        result = ckl(complete_graph(10), rng=3)
        assert result.cut == 25


MATCH, COARSE, PROJECT, FINAL = (
    "pipeline.match", "pipeline.coarse", "pipeline.project", "pipeline.final"
)


class TestPipelineSpans:
    """The shared level loop records one match per contraction, one coarse
    solve, and one project and one final (refinement) per level upward."""

    @staticmethod
    def _spans(monkeypatch, run):
        monkeypatch.setenv("REPRO_OBS", "1")
        records = []
        with capture_spans(records):
            run()
        return [r["name"] for r in records if r["name"].startswith("pipeline.")]

    def test_ckl_records_each_span_once_in_order(self, monkeypatch, gbreg_sample):
        names = self._spans(monkeypatch, lambda: ckl(gbreg_sample.graph, rng=1))
        assert names == [MATCH, COARSE, PROJECT, FINAL]

    def test_coarse_only_has_no_final(self, monkeypatch, gbreg_sample):
        names = self._spans(
            monkeypatch,
            lambda: coarse_only_bisection(gbreg_sample.graph, kernighan_lin, rng=2),
        )
        assert names == [MATCH, COARSE, PROJECT]

    def test_multilevel_per_level_counts(self, monkeypatch, gbreg_sample):
        names = self._spans(
            monkeypatch, lambda: multilevel_bisection(gbreg_sample.graph, rng=3, max_levels=2)
        )
        assert names == [MATCH, MATCH, COARSE, PROJECT, FINAL, PROJECT, FINAL]

    def test_discarded_level_still_records_its_match(self, monkeypatch):
        # One matching on a star contracts one pair: the 5% stop discards it.
        names = self._spans(monkeypatch, lambda: multilevel_bisection(star_graph(40), rng=4))
        assert names == [MATCH, COARSE]
