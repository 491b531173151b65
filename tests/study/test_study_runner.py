"""Local study execution: seed protocol, determinism, engine integration."""

from __future__ import annotations

import pytest

from repro.engine import Engine, ResultCache, Telemetry
from repro.study import cell_seeds, preset_grid, run_study_local
from repro.study.dashboard import render_study


def test_cell_seeds_is_pure_and_prefix_stable():
    first = cell_seeds(7, 3, 50)
    assert cell_seeds(7, 3, 50) == first  # pure
    assert cell_seeds(7, 3, 80)[:50] == first  # growing count keeps the prefix
    assert len(set(first)) == 50  # no collisions within a cell
    assert cell_seeds(7, 4, 50) != first  # cells are independent streams
    assert cell_seeds(8, 3, 50) != first  # master seed matters


def test_local_study_runs_every_cell_and_seed():
    grid = preset_grid("quick", two_n=40, seeds_per_cell=6)
    outcome = run_study_local(grid, master_seed=1)
    assert outcome.mode == "local"
    assert outcome.failed_requests == 0
    for stats in outcome.cell_stats:
        assert stats.count == 6
    payload = outcome.to_payload()
    assert len(payload["cells"]) == len(grid.cells)
    assert payload["cells"][0]["stats"]["count"] == 6


def test_local_study_is_deterministic():
    grid = preset_grid("quick", two_n=40, seeds_per_cell=5)
    a = run_study_local(grid, master_seed=2)
    b = run_study_local(grid, master_seed=2)
    assert a.aggregates() == b.aggregates()
    c = run_study_local(grid, master_seed=3)
    assert c.aggregates() != a.aggregates()


def test_cached_rerun_reports_hits_and_identical_aggregates(tmp_path):
    grid = preset_grid("quick", two_n=40, seeds_per_cell=5)
    cache = ResultCache(tmp_path / "cache")
    cold = run_study_local(grid, master_seed=0, engine=Engine(cache=cache))
    warm = run_study_local(grid, master_seed=0, engine=Engine(cache=cache))
    assert cold.cache_hits == 0
    assert warm.cache_hits == grid.total_runs
    assert warm.aggregates() == cold.aggregates()


def test_failed_job_raises():
    from dataclasses import replace

    from repro.engine import AlgorithmSpec
    from repro.study import StudyGrid

    base = preset_grid("quick", two_n=40, seeds_per_cell=2)
    # An unknown algorithm parameter makes every job fail at build time; a
    # study must surface that instead of reporting a biased distribution.
    broken = StudyGrid(
        name="broken",
        cells=tuple(
            replace(cell, algorithm=AlgorithmSpec.make("kl", bogus=1))
            for cell in base.cells
        ),
        seeds_per_cell=2,
    )
    with pytest.raises(RuntimeError, match="failed"):
        run_study_local(broken, master_seed=0, engine=Engine(telemetry=Telemetry()))


def test_drain_remote_counts_malformed_responses_as_failed():
    # A "done" response missing the cut field (or with a non-numeric one)
    # must count as a failed request, not kill the worker thread — a dead
    # worker silently drops every item it claimed and biases the study.
    import threading
    from collections import deque

    from repro.obs import StreamingStats
    from repro.study.runner import _drain_remote, cell_seeds

    grid = preset_grid("quick", two_n=40, seeds_per_cell=1)

    class MalformedClient:
        def __init__(self):
            self.calls = 0

        def submit(self, graph_id, algorithm, params=None, seeds=None):
            return [{"id": f"job-{self.calls}"}]

        def wait(self, job_id, timeout=None):
            self.calls += 1
            if self.calls % 2:
                return {"state": "done", "result": {"status": "ok"}}  # no cut
            return {"state": "done", "result": {"status": "ok", "cut": "n/a"}}

    work = deque(
        (index, cell_seeds(0, index, 1)[0]) for index in range(len(grid.cells))
    )
    total = len(work)
    stats = [StreamingStats() for _ in grid.cells]
    counters: dict = {"failed": 0, "cache_hits": 0, "engine_seconds": 0.0}
    graph_ids = {cell.graph_key: "g0" for cell in grid.cells}
    _drain_remote(
        MalformedClient(), work, graph_ids, grid, stats,
        counters, threading.Lock(), job_timeout=1.0,
    )
    assert not work  # the worker drained the whole queue
    assert counters["failed"] == total
    assert all(s.count == 0 for s in stats)


def test_dashboard_renders_all_blocks():
    grid = preset_grid("quick", two_n=40, seeds_per_cell=5)
    outcome = run_study_local(grid, master_seed=0)
    text = render_study(outcome)
    assert "study 'quick'" in text
    assert "q50" in text and "best@100" in text
    assert "phase boundaries" in text
    assert "2 ln 2" in text
    assert "failed=0" in text
