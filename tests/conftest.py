"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs.generators import gbreg, grid_graph, ladder_graph
from repro.graphs.graph import Graph
from repro.rng import LaggedFibonacciRandom


def pytest_collection_modifyitems(config, items):
    """Every test not explicitly marked slow/property/statistical is tier 1.

    The explicit ``tier1`` marker therefore exists for selection symmetry
    (``-m tier1`` runs exactly what the default ``-m 'not slow and not
    property and not statistical'`` run does), not because anyone has to
    remember to apply it.
    """
    for item in items:
        if not any(
            item.get_closest_marker(name)
            for name in ("tier1", "slow", "property", "statistical")
        ):
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep engine result-cache traffic out of the user's ~/.cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture
def rng():
    """A deterministic generator; each test gets a fresh seed-0 stream."""
    return LaggedFibonacciRandom(0)


@pytest.fixture
def triangle():
    """K3 — the smallest graph with a cycle."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_cliques():
    """Two K4s joined by a single bridge: planted bisection width 1."""
    edges = []
    for offset in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((offset + i, offset + j))
    edges.append((0, 4))
    return Graph.from_edges(edges)


@pytest.fixture
def small_ladder():
    return ladder_graph(6)


@pytest.fixture
def small_grid():
    return grid_graph(4, 4)


@pytest.fixture
def gbreg_sample():
    """A deterministic Gbreg(120, 4, 3) sample with its planted sides."""
    return gbreg(120, b=4, d=3, rng=11)


@pytest.fixture
def weighted_graph():
    """A small graph with mixed vertex weights (as after contraction)."""
    g = Graph()
    for v, w in [(0, 2), (1, 2), (2, 1), (3, 1), (4, 2), (5, 2)]:
        g.add_vertex(v, w)
    for u, v, w in [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 2), (5, 0, 1)]:
        g.add_edge(u, v, w)
    return g


@pytest.fixture
def fast_sa_specs(monkeypatch):
    """Registry specs ``fast_sa``/``fast_csa``: SA and CSA on a short schedule.

    For end-to-end tests that only need SA's shape.  The registry builders
    take only ``size_factor``, so the short schedule is registered under
    its own names for the test's duration.
    """
    from repro.core.pipeline import csa
    from repro.engine import registry
    from repro.engine.job import AlgorithmSpec
    from repro.partition.annealing import AnnealingSchedule, simulated_annealing

    schedule = AnnealingSchedule(size_factor=2, cooling_ratio=0.9, max_temperatures=80)
    monkeypatch.setitem(
        registry._BUILDERS,
        "fast_sa",
        lambda: lambda g, rng: simulated_annealing(g, rng=rng, schedule=schedule),
    )
    monkeypatch.setitem(
        registry._BUILDERS,
        "fast_csa",
        lambda: lambda g, rng: csa(g, rng=rng, schedule=schedule),
    )
    return {"sa": AlgorithmSpec.make("fast_sa"), "csa": AlgorithmSpec.make("fast_csa")}
