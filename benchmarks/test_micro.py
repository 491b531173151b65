"""Microbenchmarks for the core operations (multi-round timing).

Unlike the table benches (one long experiment per bench), these measure
the hot primitives with pytest-benchmark's statistical repetition:
generator throughput, one KL pass, SA move throughput, and
matching + contraction.  They guard
against performance regressions in the primitives the tables depend on.
"""

from __future__ import annotations

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.graphs.generators import gbreg, gnp
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition.bisection import cut_weight
from repro.partition.kl import kl_pass
from repro.partition.random_init import random_assignment
from repro.rng import LaggedFibonacciRandom

N = 1000  # vertices for every micro target


@pytest.fixture(scope="module")
def sparse_graph():
    return gbreg(N, 16, 3, rng=1).graph


def test_micro_gnp_generation(benchmark):
    benchmark(lambda: gnp(N, 3.0 / (N - 1), rng=3))


def test_micro_gbreg_generation(benchmark):
    benchmark(lambda: gbreg(N, 16, 3, rng=4))


def test_micro_cut_weight(benchmark, sparse_graph):
    assignment = random_assignment(sparse_graph, rng=5)
    benchmark(cut_weight, sparse_graph, assignment)


def test_micro_kl_pass(benchmark, sparse_graph):
    def run():
        assignment = random_assignment(sparse_graph, LaggedFibonacciRandom(6))
        return kl_pass(sparse_graph, assignment)

    gain, swaps = benchmark(run)
    assert gain >= 0


def test_micro_matching_and_contraction(benchmark, sparse_graph):
    def run():
        matching = random_maximal_matching(sparse_graph, LaggedFibonacciRandom(7))
        return compact(sparse_graph, matching)

    compaction = benchmark(run)
    assert compaction.coarse.num_vertices < N


def test_micro_sa_short_run(benchmark, sparse_graph):
    schedule = AnnealingSchedule(size_factor=1, cooling_ratio=0.8, max_temperatures=10)

    def run():
        return simulated_annealing(sparse_graph, rng=8, schedule=schedule)

    result = benchmark(run)
    assert result.bisection.is_balanced()
