"""Fleet-wide metric/span shipping: worker deltas merged into the parent.

The headline contract: a ``--jobs 4`` batch — under *either* start
method — produces exactly the bare kernel counters a serial run of the
same jobs produces, bit for bit, plus ``worker=<slot>``-labeled
attribution the serial run doesn't have.  Shipments ride on
``JobResult.obs`` and are stripped before results reach callers or the
cache.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine.executor import Engine
from repro.engine.job import AlgorithmSpec, Job
from repro.engine.telemetry import Telemetry
from repro.graphs.generators import gbreg
from repro.obs import REGISTRY, reset_span_totals, run_context
from repro.obs.metrics import parse_series
from repro.rng import LaggedFibonacciRandom, derive_seed

#: Kernel counters that must match a serial run exactly after the merge.
KERNEL_COUNTERS = (
    "kl_candidates_total",
    "kl_passes_total",
    "kl_runs_total",
    "kl_selections_total",
    "kl_swaps_total",
)


def _fresh_graph():
    # A fresh graph per phase: CSR compiles are part of the counter
    # equality claim, and a graph reused across phases would carry a
    # warm CSR cache into the second phase.
    return gbreg(60, 4, 3, LaggedFibonacciRandom(11)).graph


def _batch(starts: int = 8) -> list[Job]:
    master = LaggedFibonacciRandom(0)
    spec = AlgorithmSpec.make("kl")
    return [
        Job("g", spec, derive_seed(master, index), job_id=f"start{index}")
        for index in range(starts)
    ]


def _run_and_snapshot(jobs: int):
    """Run one batch on a clean registry; return (results, counters)."""
    REGISTRY.reset()
    reset_span_totals()
    results = Engine(jobs=jobs, telemetry=Telemetry()).run(
        _batch(), {"g": _fresh_graph()}
    )
    return results, REGISTRY.snapshot()["counters"]


def _bare_kernel_counters(counters: dict) -> dict:
    return {
        name: value
        for name, value in counters.items()
        if parse_series(name)[0] in KERNEL_COUNTERS and "{" not in name
    }


def _available(method: str) -> bool:
    return method in multiprocessing.get_all_start_methods()


class TestFleetMergeEqualsSerial:
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_bare_counters_bit_for_bit(self, method, monkeypatch):
        if not _available(method):
            pytest.skip(f"{method} start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", method)
        parallel_results, parallel = _run_and_snapshot(jobs=4)
        monkeypatch.delenv("REPRO_START_METHOD")
        serial_results, serial = _run_and_snapshot(jobs=1)

        assert [r.cut for r in parallel_results] == [r.cut for r in serial_results]
        expected = _bare_kernel_counters(serial)
        assert expected  # the kernels really did count something
        assert _bare_kernel_counters(parallel) == expected

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_worker_attribution_present(self, method, monkeypatch):
        if not _available(method):
            pytest.skip(f"{method} start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", method)
        _, counters = _run_and_snapshot(jobs=4)

        labeled = [
            parse_series(series) for series in counters if "worker=" in series
        ]
        assert labeled
        slots = {labels["worker"] for _, labels in labeled}
        # Slots are dense indices starting at 0, not raw pids.
        assert slots <= {str(i) for i in range(4)}
        assert "0" in slots
        # The per-fleet bookkeeping counters exist per slot.
        names = {name for name, _ in labeled}
        assert "engine_worker_jobs_total" in names
        assert "engine_worker_busy_seconds_total" in names
        # Attribution sums back to the bare kernel totals.
        for kernel in ("kl_runs_total", "kl_swaps_total"):
            attributed = sum(
                value
                for series, value in counters.items()
                if parse_series(series)[0] == kernel and "worker=" in series
            )
            assert attributed == counters[kernel]


class TestShipmentHygiene:
    def test_results_reach_callers_stripped(self, monkeypatch):
        if not _available("fork"):
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        results, _ = _run_and_snapshot(jobs=4)
        assert all(r.obs is None for r in results)

    def test_cached_results_carry_no_shipment(self, monkeypatch, tmp_path):
        if not _available("fork"):
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        graph = _fresh_graph()
        engine = Engine(jobs=4, telemetry=Telemetry(), cache=tmp_path / "cache")
        engine.run(_batch(), {"g": graph})
        # Second run over the same jobs is served from the cache.
        REGISTRY.reset()
        results = engine.run(_batch(), {"g": graph})
        assert all(r.obs is None for r in results)
        counters = REGISTRY.snapshot()["counters"]
        assert counters.get("engine_cache_hits_total", 0) >= 1
        # Cache hits replay no worker counters.
        assert not any("worker=" in series for series in counters)

    def test_worker_spans_reach_the_run_ledger(self, monkeypatch):
        if not _available("fork"):
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        REGISTRY.reset()
        reset_span_totals()
        with run_context(workload={}) as run:
            Engine(jobs=4, telemetry=Telemetry()).run(
                _batch(), {"g": _fresh_graph()}
            )
            spans = run.collector.snapshot()
        assert "kl.run" in spans
        assert spans["kl.run"]["count"] == 8

    def test_serial_run_ships_nothing(self):
        results, counters = _run_and_snapshot(jobs=1)
        assert all(r.obs is None for r in results)
        assert not any("worker=" in series for series in counters)

    def test_obs_off_runs_clean(self, monkeypatch):
        if not _available("fork"):
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_OBS", "0")
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        REGISTRY.reset()
        results = Engine(jobs=4, telemetry=Telemetry()).run(
            _batch(), {"g": _fresh_graph()}
        )
        assert all(r.status == "ok" for r in results)
        assert all(r.obs is None for r in results)
        assert REGISTRY.snapshot()["counters"] == {}
