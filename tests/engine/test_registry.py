"""Unit tests for the algorithm registry."""

from __future__ import annotations

import pytest

from repro.engine.job import AlgorithmSpec
from repro.engine.registry import algorithm_names, build_algorithm, register_algorithm
from repro.rng import LaggedFibonacciRandom

GRAPH_ALGORITHMS = ["kl", "ckl", "sa", "csa", "fm", "greedy", "multilevel"]


class TestRegistry:
    def test_all_builtins_registered(self):
        assert algorithm_names() == sorted(GRAPH_ALGORITHMS + ["cycles"])

    @pytest.mark.parametrize("name", GRAPH_ALGORITHMS)
    def test_builds_runnable_algorithm(self, name, two_cliques):
        algorithm = build_algorithm(AlgorithmSpec.make(name))
        result = algorithm(two_cliques, LaggedFibonacciRandom(3))
        assert result.cut >= 1
        assert result.bisection.imbalance == 0

    def test_cycles_solver_on_a_cycle(self):
        from repro.graphs.graph import Graph

        cycle = Graph.from_edges([(i, (i + 1) % 8) for i in range(8)])
        result = build_algorithm(AlgorithmSpec.make("cycles"))(
            cycle, LaggedFibonacciRandom(0)
        )
        assert result.cut == 2

    def test_sa_size_factor_param(self, two_cliques):
        algorithm = build_algorithm(AlgorithmSpec.make("sa", size_factor=2))
        result = algorithm(two_cliques, LaggedFibonacciRandom(1))
        assert result.cut >= 1

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            build_algorithm(AlgorithmSpec.make("nonsense"))

    def test_duplicate_registration_guarded(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("kl", lambda: None)

    def test_register_and_overwrite(self):
        from repro.engine import registry

        marker = object()
        register_algorithm("_test_tmp", lambda: marker, overwrite=True)
        try:
            assert build_algorithm(AlgorithmSpec.make("_test_tmp")) is marker
        finally:
            registry._BUILDERS.pop("_test_tmp", None)
