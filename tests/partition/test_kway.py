"""Unit tests for k-way partitioning by recursive bisection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs.generators import gbreg, gnp, grid_graph, ladder_graph
from repro.graphs.graph import Graph
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kway import KWayPartition, recursive_kway

# Splits a string-labelled Gnp graph into four parts and prints them,
# each part's labels sorted.  String hashes follow PYTHONHASHSEED, so a
# set iterated anywhere on the seeded path shows up as different parts.
_KWAY_PROBE = """
from repro.graphs.generators import gnp
from repro.graphs.graph import Graph
from repro.partition.kway import recursive_kway
base = gnp(200, 0.04, rng=3)
g = Graph()
for v in base.vertices():
    g.add_vertex(f"v{v}")
for u, v, w in base.edges():
    g.add_edge(f"v{u}", f"v{v}", w)
print([sorted(part) for part in recursive_kway(g, 4, rng=3).parts])
"""


def _kway_parts_under_hash_seed(hash_seed: str) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
    )
    result = subprocess.run(
        [sys.executable, "-c", _KWAY_PROBE], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestRecursiveKway:
    def test_k1_is_whole_graph(self, small_grid):
        p = recursive_kway(small_grid, 1, rng=1)
        assert p.k == 1
        assert p.cut == 0
        assert p.parts[0] == frozenset(small_grid.vertices())

    def test_k2_matches_bisection_balance(self, small_grid):
        p = recursive_kway(small_grid, 2, rng=2)
        w = p.part_weights()
        assert abs(w[0] - w[1]) <= 1

    def test_k4_grid_near_optimal(self):
        p = recursive_kway(grid_graph(8, 8), 4, rng=3)
        assert p.part_weights() == (16, 16, 16, 16)
        assert p.cut <= 24  # two straight cuts = 16

    def test_power_of_two_parts_even(self):
        g = gbreg(128, 4, 3, rng=4).graph
        p = recursive_kway(g, 8, rng=5)
        assert p.k == 8
        assert all(w == 16 for w in p.part_weights())

    def test_odd_k_shares(self):
        g = grid_graph(6, 10)  # 60 vertices
        p = recursive_kway(g, 3, rng=6)
        assert sorted(p.part_weights()) == [20, 20, 20]

    def test_k5_shares(self):
        g = gbreg(200, 4, 3, rng=7).graph
        p = recursive_kway(g, 5, rng=8)
        assert all(w == 40 for w in p.part_weights())

    def test_k7_near_even(self):
        g = gnp(70, 0.1, rng=9)
        p = recursive_kway(g, 7, rng=10)
        weights = p.part_weights()
        assert max(weights) - min(weights) <= 2

    def test_k_equals_n(self):
        g = ladder_graph(3)
        p = recursive_kway(g, 6, rng=11)
        assert all(len(part) == 1 for part in p.parts)
        assert p.cut == g.total_edge_weight

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            recursive_kway(triangle, 0)
        with pytest.raises(ValueError):
            recursive_kway(triangle, 4)

    def test_deterministic(self):
        g = gnp(48, 0.15, rng=12)
        a = recursive_kway(g, 4, rng=13)
        b = recursive_kway(g, 4, rng=13)
        assert a.parts == b.parts

    def test_parts_do_not_depend_on_the_hash_seed(self):
        assert _kway_parts_under_hash_seed("1") == _kway_parts_under_hash_seed("2")

    def test_custom_bisector(self, small_grid):
        p = recursive_kway(small_grid, 4, rng=14, bisector=fiduccia_mattheyses)
        assert p.k == 4
        p.validate()


class TestKWayPartition:
    def test_cut_counts_cross_edges_once(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        p = KWayPartition(g, (frozenset([0, 1]), frozenset([2]), frozenset([3])))
        assert p.cut == 2

    def test_part_map(self):
        g = Graph.from_edges([(0, 1)])
        p = KWayPartition(g, (frozenset([0]), frozenset([1])))
        assert p.part_map() == {0: 0, 1: 1}

    def test_max_imbalance_ratio(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        p = KWayPartition(g, (frozenset([0, 1, 2]), frozenset([3])))
        assert p.max_imbalance_ratio() == pytest.approx(1.5)

    def test_validate_detects_overlap(self):
        g = Graph.from_edges([(0, 1)])
        p = KWayPartition(g, (frozenset([0, 1]), frozenset([1])))
        with pytest.raises(AssertionError):
            p.validate()

    def test_validate_detects_missing(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        p = KWayPartition(g, (frozenset([0]), frozenset([1])))
        with pytest.raises(AssertionError):
            p.validate()


class TestKwayProperties:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=20, deadline=None)
    def test_partition_invariants(self, seed, k):
        g = gnp(42, 0.15, seed)
        p = recursive_kway(g, k, rng=seed)
        p.validate()
        weights = p.part_weights()
        assert sum(weights) == g.total_vertex_weight
        # No part more than one vertex above the ideal share.
        assert max(weights) - min(weights) <= max(2, k // 2)
