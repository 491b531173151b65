"""Cross-module property tests and failure injection.

These tests wire several subsystems together on randomized inputs and
check the invariants that make the reproduction trustworthy end to end:

* every bisector returns a balanced partition whose reported cut matches
  a from-scratch recomputation;
* compaction + projection is cut-exact through arbitrarily many levels;
* the exact oracles agree with each other;
* corrupted structures are *detected*, not silently accepted.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.core.pipeline import ckl
from repro.graphs.generators import gbreg, gnp, random_tree
from repro.graphs.traversal import is_connected
from repro.partition import (
    Bisection,
    bisect_paths_and_cycles,
    cut_weight,
    exact_bisection_width,
    fiduccia_mattheyses,
    greedy_improvement,
    kernighan_lin,
    simulated_annealing,
)
from repro.partition.annealing import AnnealingSchedule

FAST_SA = AnnealingSchedule(size_factor=1, cooling_ratio=0.85, max_temperatures=40)

ALL_BISECTORS = [
    ("kl", lambda g, seed: kernighan_lin(g, rng=seed)),
    ("fm", lambda g, seed: fiduccia_mattheyses(g, rng=seed)),
    ("greedy", lambda g, seed: greedy_improvement(g, rng=seed)),
    ("sa", lambda g, seed: simulated_annealing(g, rng=seed, schedule=FAST_SA)),
    ("ckl", lambda g, seed: ckl(g, rng=seed)),
]


class TestEveryBisectorContract:
    @pytest.mark.parametrize("name,bisector", ALL_BISECTORS)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_balanced_and_cut_exact(self, name, bisector, seed):
        g = gnp(26, 0.18, seed)
        result = bisector(g, seed)
        b = result.bisection
        assert b.is_balanced(), name
        assert b.cut == cut_weight(g, b.assignment()), name
        assert result.cut == b.cut, name

    @pytest.mark.parametrize("name,bisector", ALL_BISECTORS)
    def test_never_below_the_exact_width(self, name, bisector):
        g = gbreg(16, 2, 3, rng=9).graph
        result = bisector(g, 1)
        assert result.cut >= exact_bisection_width(g), name


class TestMultilevelCutExactness:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_three_level_projection_chain(self, seed):
        g = gnp(48, 0.12, seed)
        chain = []
        current = g
        for level in range(3):
            comp = compact(current, random_maximal_matching(current, seed + level))
            chain.append(comp)
            current = comp.coarse
        from repro.partition.random_init import random_bisection

        bisection = random_bisection(current, rng=seed)
        cut_at_coarsest = bisection.cut
        for comp in reversed(chain):
            bisection = comp.project(bisection)
        assert bisection.cut == cut_at_coarsest
        assert set(bisection.graph.vertices()) == set(g.vertices())


class TestOracleAgreement:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_cycle_solver_vs_exhaustive(self, seed):
        sample = gbreg(12, 2, 2, rng=seed)
        fast = bisect_paths_and_cycles(sample.graph).cut
        slow = exact_bisection_width(sample.graph)
        assert fast == slow


class TestTreeBisectionSanity:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_tree_cut_at_least_one(self, seed):
        g = random_tree(30, seed)
        assert is_connected(g)
        result = kernighan_lin(g, rng=seed)
        assert result.cut >= 1  # every balanced split of a connected graph cuts


class TestFailureInjection:
    def test_graph_validate_catches_counter_drift(self):
        g = gnp(15, 0.3, rng=1)
        g._num_edges += 1
        with pytest.raises(AssertionError):
            g.validate()

    def test_graph_validate_catches_weight_drift(self):
        g = gnp(15, 0.3, rng=2)
        g._total_edge_weight -= 1
        with pytest.raises(AssertionError):
            g.validate()

    def test_bisection_rejects_partial_corruption(self):
        g = gnp(10, 0.3, rng=3)
        assignment = {v: 0 for v in g.vertices()}
        del assignment[next(iter(g.vertices()))]
        with pytest.raises(ValueError):
            Bisection(g, assignment)

    def test_compaction_rejects_stale_matching(self):
        g = gnp(20, 0.2, rng=4)
        matching = random_maximal_matching(g, rng=5)
        if matching:
            u, v = matching[0]
            g.remove_edge(u, v)
            with pytest.raises(ValueError):
                compact(g, matching)
