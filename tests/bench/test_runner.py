"""Unit tests for the best-of-two-starts experiment runner."""

from __future__ import annotations

import pytest

from repro.bench.runner import best_of_starts, run_workload
from repro.bench.workloads import WorkloadCase
from repro.engine.job import AlgorithmSpec
from repro.graphs.generators import gbreg, ladder_graph

kl = AlgorithmSpec.make("kl")


class TestBestOfStarts:
    def test_two_starts_recorded(self, gbreg_sample):
        outcome = best_of_starts(gbreg_sample.graph, kl, rng=1, starts=2)
        assert outcome.starts == 2
        assert outcome.cut == min(outcome.start_cuts)
        assert outcome.seconds == pytest.approx(sum(outcome.start_seconds))

    def test_single_start(self, small_ladder):
        outcome = best_of_starts(small_ladder, kl, rng=2, starts=1)
        assert outcome.starts == 1

    def test_more_starts_never_worse(self, gbreg_sample):
        two = best_of_starts(gbreg_sample.graph, kl, rng=3, starts=2)
        four = best_of_starts(gbreg_sample.graph, kl, rng=3, starts=4)
        # Starts are salted independently: the first two repeat exactly.
        assert four.start_cuts[:2] == two.start_cuts
        assert four.cut <= two.cut

    def test_zero_starts_rejected(self, small_ladder):
        with pytest.raises(ValueError):
            best_of_starts(small_ladder, kl, starts=0)

    def test_deterministic(self, gbreg_sample):
        a = best_of_starts(gbreg_sample.graph, kl, rng=4)
        b = best_of_starts(gbreg_sample.graph, kl, rng=4)
        assert a.start_cuts == b.start_cuts


class TestRunWorkload:
    def test_rows_match_cases(self):
        cases = [
            WorkloadCase("ladder(20)", 2, lambda rng: ladder_graph(10)),
            WorkloadCase(
                "gbreg(60)", 4, lambda rng: gbreg(60, 4, 3, rng).graph
            ),
        ]
        rows = run_workload(cases, {"kl": kl}, rng=1, starts=1)
        assert [r.label for r in rows] == ["ladder(20)", "gbreg(60)"]
        assert rows[0].expected_b == 2

    def test_deterministic(self):
        cases = [WorkloadCase("g", 4, lambda rng: gbreg(60, 4, 3, rng).graph)]
        a = run_workload(cases, {"kl": kl}, rng=5, starts=1)
        b = run_workload(cases, {"kl": kl}, rng=5, starts=1)
        assert a[0].cut("kl") == b[0].cut("kl")
