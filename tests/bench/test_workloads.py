"""Unit tests for workload definitions and scale tiers."""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    Scale,
    btree_cases,
    current_scale,
    g2set_cases,
    gbreg_cases,
    gnp_cases,
    grid_cases,
    ladder_cases,
    standard_algorithm_specs,
)
from repro.engine.registry import build_algorithm
from repro.rng import LaggedFibonacciRandom

SMOKE = Scale(
    name="test",
    random_graph_sizes=(60,),
    seeds_per_point=2,
    gnp_seeds_per_point=1,
    starts=1,
    sa_size_factor=2,
    special_sizes=(40,),
    gbreg_widths=(2, 4),
    g2set_widths=(4,),
)


class TestScaleSelection:
    def test_default_is_ci(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "ci"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert current_scale().name == "paper"

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "enormous")
        with pytest.raises(ValueError):
            current_scale()


class TestCaseBuilders:
    def test_gbreg_cases_parity_valid(self):
        rng = LaggedFibonacciRandom(1)
        for case in gbreg_cases(SMOKE, 3):
            graph = case.build(rng)
            assert graph.num_vertices == 60
        # Degree 3 at n = 30: n*d even, so widths stay as requested.
        labels = {c.label for c in gbreg_cases(SMOKE, 3)}
        assert labels == {"Gbreg(60,2,3)", "Gbreg(60,4,3)"}

    def test_gbreg_seeds_multiply_cases(self):
        cases = gbreg_cases(SMOKE, 3)
        assert len(cases) == 2 * SMOKE.seeds_per_point

    def test_g2set_cases(self):
        rng = LaggedFibonacciRandom(2)
        cases = g2set_cases(SMOKE, 3.0)
        assert cases
        graph = cases[0].build(rng)
        assert graph.num_vertices == 60
        assert cases[0].expected_b == 4

    def test_gnp_cases_have_no_expected_b(self):
        for case in gnp_cases(SMOKE):
            assert case.expected_b is None

    def test_ladder_cases_expected_2(self):
        rng = LaggedFibonacciRandom(3)
        for case in ladder_cases(SMOKE):
            assert case.expected_b == 2
            graph = case.build(rng)
            assert graph.num_vertices == 40

    def test_grid_cases_even_side(self):
        rng = LaggedFibonacciRandom(4)
        for case in grid_cases(SMOKE):
            graph = case.build(rng)
            side = case.expected_b
            assert side % 2 == 0
            assert graph.num_vertices == side * side

    def test_btree_cases(self):
        rng = LaggedFibonacciRandom(5)
        for case in btree_cases(SMOKE):
            graph = case.build(rng)
            assert graph.num_edges == graph.num_vertices - 1


class TestStandardAlgorithms:
    def test_kl_only(self):
        specs = standard_algorithm_specs(SMOKE, include_sa=False)
        assert set(specs) == {"kl", "ckl"}

    def test_full_suite(self):
        specs = standard_algorithm_specs(SMOKE)
        assert set(specs) == {"kl", "ckl", "sa", "csa"}
        assert specs["sa"].params_dict() == {"size_factor": SMOKE.sa_size_factor}

    def test_algorithms_runnable(self, small_ladder):
        rng = LaggedFibonacciRandom(6)
        for name, spec in standard_algorithm_specs(SMOKE).items():
            result = build_algorithm(spec)(small_ladder, rng)
            assert result.cut >= 2, name
