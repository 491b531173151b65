"""End-to-end integration tests: the paper's observations at test scale.

Each test exercises a full pipeline (generator -> algorithm(s) ->
metrics) and asserts the *qualitative shape* of a Section VI observation.
Sizes are kept small so the suite stays fast; the benchmarks directory
reruns the same shapes at CI/paper scale.
"""

from __future__ import annotations

import pytest

from repro.bench.metrics import cut_improvement_percent, cut_ratio
from repro.bench.runner import best_of_starts
from repro.engine.job import AlgorithmSpec
from repro.graphs.generators import binary_tree, gbreg, gnp_with_degree, ladder_graph
from repro.graphs.properties import random_bisection_expected_cut
from repro.partition.random_init import random_bisection

kl = AlgorithmSpec.make("kl")
ckl_algo = AlgorithmSpec.make("ckl")


@pytest.fixture
def sa(fast_sa_specs):
    return fast_sa_specs["sa"]


@pytest.fixture
def csa_algo(fast_sa_specs):
    return fast_sa_specs["csa"]


class TestObservation1DegreeEffect:
    """Bisection algorithms improve as the average degree increases."""

    def test_kl_much_better_on_degree_4(self):
        d3 = gbreg(300, b=8, d=3, rng=1)
        d4 = gbreg(300, b=8, d=4, rng=1)
        cut3 = best_of_starts(d3.graph, kl, rng=2).cut
        cut4 = best_of_starts(d4.graph, kl, rng=2).cut
        # Degree 4: planted found (or nearly); degree 3: misses by a lot.
        assert cut_ratio(cut4, 8) <= 2.0
        assert cut_ratio(cut3, 8) > cut_ratio(cut4, 8)


class TestObservation2CompactionOnSparse:
    """Compaction improves quality dramatically on small-degree graphs."""

    def test_ckl_large_improvement_on_gbreg_d3(self):
        sample = gbreg(300, b=8, d=3, rng=3)
        plain = best_of_starts(sample.graph, kl, rng=4).cut
        compacted = best_of_starts(sample.graph, ckl_algo, rng=4).cut
        assert cut_improvement_percent(plain, compacted) >= 50.0
        assert compacted <= sample.planted_width + 6

    def test_csa_improvement_on_gbreg_d3(self, sa, csa_algo):
        sample = gbreg(200, b=6, d=3, rng=5)
        plain = best_of_starts(sample.graph, sa, rng=6).cut
        compacted = best_of_starts(sample.graph, csa_algo, rng=6).cut
        assert compacted <= max(plain, sample.planted_width + 6)


class TestObservation3SpecialGraphs:
    """Compaction helps on grids, ladders, and binary trees."""

    def test_ladder_ckl_no_worse(self):
        g = ladder_graph(60)
        plain = best_of_starts(g, kl, rng=7).cut
        compacted = best_of_starts(g, ckl_algo, rng=7).cut
        assert compacted <= plain

    def test_btree_ckl_no_worse(self):
        g = binary_tree(128)
        plain = best_of_starts(g, kl, rng=8).cut
        compacted = best_of_starts(g, ckl_algo, rng=8).cut
        assert compacted <= plain


class TestObservation4KLvsSA:
    """Plain KL is faster than SA; SA wins on ladders/trees."""

    def test_kl_faster_than_sa(self, gbreg_sample, sa):
        kl_outcome = best_of_starts(gbreg_sample.graph, kl, rng=9)
        sa_outcome = best_of_starts(gbreg_sample.graph, sa, rng=9)
        assert kl_outcome.seconds < sa_outcome.seconds

    def test_sa_competitive_on_ladder(self, sa):
        g = ladder_graph(30)
        sa_cut = best_of_starts(g, sa, rng=10, starts=2).cut
        kl_cut = best_of_starts(g, kl, rng=10, starts=2).cut
        # SA should be at least comparable on the KL-adversarial family.
        assert sa_cut <= max(kl_cut, 6)


class TestGnpModelCriticism:
    """Section IV: Gnp cannot separate heuristics — cuts stay near random."""

    def test_kl_cut_close_to_random_cut(self):
        g = gnp_with_degree(300, 8.0, rng=11)
        random_cut = random_bisection(g, rng=12).cut
        kl_cut = best_of_starts(g, kl, rng=13).cut
        expected = random_bisection_expected_cut(g)
        # KL improves, but stays within a modest factor of random — unlike
        # Gbreg where the ratio is 20-50x.
        assert kl_cut > 0.3 * expected
        assert kl_cut < random_cut


class TestDegree2Exact:
    """Section VI: degree-2 Gbreg graphs are cycle unions, solvable exactly."""

    def test_everything_finds_near_zero(self):
        from repro.partition.dfs_cycle import bisect_paths_and_cycles

        sample = gbreg(120, b=2, d=2, rng=14)
        exact = bisect_paths_and_cycles(sample.graph).cut
        assert exact <= 2
        heuristic = best_of_starts(sample.graph, ckl_algo, rng=15).cut
        assert heuristic <= 6


class TestFullStackDeterminism:
    def test_identical_reruns(self, gbreg_sample):
        first = [
            best_of_starts(gbreg_sample.graph, algo, rng=16).cut
            for algo in (kl, ckl_algo)
        ]
        second = [
            best_of_starts(gbreg_sample.graph, algo, rng=16).cut
            for algo in (kl, ckl_algo)
        ]
        assert first == second
