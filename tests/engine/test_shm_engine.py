"""Engine shared-memory sharding: lifecycle, fallbacks, start methods.

The contract under test: a multi-worker batch exports each graph's CSR
to shared memory exactly once, workers attach at zero compile cost, and
*every* exit path — normal completion, a worker crash, a
KeyboardInterrupt mid-batch, a stale segment name — leaves ``/dev/shm``
exactly as it found it and still returns results bitwise identical to a
serial run.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

import repro.engine.executor as executor
from repro.engine.executor import Engine, _worker_init, _worker_run
from repro.engine import registry
from repro.engine.job import AlgorithmSpec, Job
from repro.engine.telemetry import Telemetry
from repro.graphs.generators import gbreg
from repro.graphs.shm import SharedGraphSegment, ShmGraphRef
from repro.rng import LaggedFibonacciRandom, derive_seed


@pytest.fixture(scope="module")
def graph():
    return gbreg(60, 4, 3, LaggedFibonacciRandom(11)).graph


def _segment_names() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def _kl_batch(starts: int = 4) -> list[Job]:
    master = LaggedFibonacciRandom(0)
    spec = AlgorithmSpec.make("kl")
    return [
        Job("g", spec, derive_seed(master, index), job_id=f"start{index}")
        for index in range(starts)
    ]


def _run(engine: Engine, graph, starts: int = 4):
    return engine.run(_kl_batch(starts), {"g": graph})


def _assert_same_results(parallel, serial):
    assert [r.cut for r in parallel] == [r.cut for r in serial]
    assert [r.side0 for r in parallel] == [r.side0 for r in serial]
    assert [r.seeds_tried for r in parallel] == [r.seeds_tried for r in serial]


class TestNormalLifecycle:
    def test_export_once_attach_everywhere_unlink_on_exit(self, graph):
        before = _segment_names()
        telemetry = Telemetry()
        results = _run(Engine(jobs=2, telemetry=telemetry), graph)
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("shm_export") == 1
        assert telemetry.count("shm_unlink") == 1
        assert telemetry.count("shm_export_failed") == 0
        assert telemetry.count("shm_attach_failed") == 0
        # The compile-once proof: no worker recompiled the CSR.
        assert all(r.counters.get("worker_csr_compiles") == 0 for r in results)
        assert _segment_names() == before

    def test_ckl_workers_compile_no_coarse_graph(self, graph):
        # G' arrives compiled from the contraction, so a CKL job in a
        # worker compiles nothing either.
        master = LaggedFibonacciRandom(0)
        spec = AlgorithmSpec.make("ckl")
        jobs = [Job("g", spec, derive_seed(master, index), job_id=f"ckl{index}")
                for index in range(4)]
        results = Engine(jobs=2).run(jobs, {"g": graph})
        serial = Engine(jobs=1).run(jobs, {"g": graph})

        _assert_same_results(results, serial)
        assert all(r.counters.get("worker_csr_compiles") == 0 for r in results)

    def test_shm_disabled_ships_pickles(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        telemetry = Telemetry()
        results = _run(Engine(jobs=2, telemetry=telemetry), graph)
        monkeypatch.delenv("REPRO_SHM")
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("shm_export") == 0
        assert telemetry.count("shm_unlink") == 0
        # Without sharding there is no compile-once obligation to report.
        assert all("worker_csr_compiles" not in r.counters for r in results)

    def test_unshareable_graph_falls_back_to_pickle(self, graph, monkeypatch):
        monkeypatch.setattr(
            executor.SharedGraphSegment,
            "create",
            staticmethod(lambda g: (_ for _ in ()).throw(OSError("shm full"))),
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _run(Engine(jobs=2, telemetry=telemetry), graph)
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("shm_export_failed") == 1
        assert telemetry.count("shm_export") == 0
        assert _segment_names() == before


class TestAttachFallback:
    def test_stale_segment_degrades_to_serial_pickle_path(self, graph, monkeypatch):
        original = SharedGraphSegment.create

        def stale_create(g):
            segment = original(g)
            segment.unlink()  # yank the name before any worker attaches
            return segment

        monkeypatch.setattr(
            executor.SharedGraphSegment, "create", staticmethod(stale_create)
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _run(Engine(jobs=2, telemetry=telemetry), graph)
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("shm_attach_failed") >= 1
        assert all(r.ok for r in results)
        assert _segment_names() == before

    def test_attach_fallback_counts_each_job_once(self, graph, monkeypatch):
        original = SharedGraphSegment.create

        def stale_create(g):
            segment = original(g)
            segment.unlink()
            return segment

        monkeypatch.setattr(
            executor.SharedGraphSegment, "create", staticmethod(stale_create)
        )
        telemetry = Telemetry()
        _run(Engine(jobs=2, telemetry=telemetry), graph)

        assert telemetry.count("shm_attach_failed") >= 1
        assert telemetry.summary()["jobs"] == 4
        assert telemetry.count("job_queued") == 4
        assert "degraded to serial" in telemetry.render_summary()

    def test_worker_run_reports_typed_attach_failure(self):
        _worker_init({"g": ShmGraphRef("psm_repro_gone")})
        try:
            result = _worker_run(Job("g", AlgorithmSpec.make("kl"), seed=1,
                                     job_id="j"))
        finally:
            _worker_init({})
        assert result.status == "failed"
        assert result.attempts == 0
        assert result.error.startswith(executor._SHM_ATTACH_PREFIX)


def _build_crash():
    def crash(graph, rng):
        if multiprocessing.parent_process() is not None:
            os._exit(1)  # hard-kill the worker: no exception, no cleanup
        raise ValueError("crash algorithm ran in the parent")

    return crash


class TestRobustnessCleanup:
    def test_worker_crash_still_unlinks(self, graph, monkeypatch):
        # The crash algorithm is registered only for this test (the
        # registry enumeration suites must never see it); the fork start
        # method is what makes the registration visible in workers.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        monkeypatch.setitem(registry._BUILDERS, "crashtest", _build_crash)
        monkeypatch.setitem(
            registry._INFO, "crashtest", registry.AlgorithmInfo(name="crashtest")
        )
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        before = _segment_names()
        telemetry = Telemetry()
        master = LaggedFibonacciRandom(0)
        spec = AlgorithmSpec.make("crashtest")
        jobs = [Job("g", spec, derive_seed(master, i), job_id=f"c{i}")
                for i in range(3)]
        results = Engine(jobs=2, telemetry=telemetry).run(jobs, {"g": graph})

        assert telemetry.count("pool_broken") == 1
        assert telemetry.count("shm_unlink") == 1
        # The serial sweep finished the batch in the parent, where the
        # algorithm fails as an ordinary exception.
        assert all(r.status == "failed" for r in results)
        assert all("parent" in r.error for r in results)
        assert _segment_names() == before

    def test_worker_crash_counts_each_job_once(self, graph, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        monkeypatch.setitem(registry._BUILDERS, "crashtest", _build_crash)
        monkeypatch.setitem(
            registry._INFO, "crashtest", registry.AlgorithmInfo(name="crashtest")
        )
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        telemetry = Telemetry()
        master = LaggedFibonacciRandom(0)
        spec = AlgorithmSpec.make("crashtest")
        jobs = [Job("g", spec, derive_seed(master, i), job_id=f"c{i}")
                for i in range(3)]
        Engine(jobs=2, telemetry=telemetry).run(jobs, {"g": graph})

        assert telemetry.count("pool_broken") == 1
        summary = telemetry.summary()
        assert summary["jobs"] == 3
        assert summary["failed"] == 3
        assert telemetry.count("job_queued") == 3
        line = telemetry.render_summary()
        assert line.startswith("engine: 3 jobs |")
        assert "degraded to serial" in line

    def test_keyboard_interrupt_still_unlinks(self, graph, monkeypatch):
        def interrupted(self, pool, pending, results):
            raise KeyboardInterrupt

        monkeypatch.setattr(Engine, "_run_parallel", interrupted)
        before = _segment_names()
        telemetry = Telemetry()
        with pytest.raises(KeyboardInterrupt):
            _run(Engine(jobs=2, telemetry=telemetry), graph)
        assert telemetry.count("shm_export") == 1
        assert telemetry.count("shm_unlink") == 1
        assert _segment_names() == before


class TestStartMethods:
    def test_forced_spawn_is_bitwise_identical(self, graph, monkeypatch):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        telemetry = Telemetry()
        results = _run(Engine(jobs=2, telemetry=telemetry), graph)
        monkeypatch.delenv("REPRO_START_METHOD")
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        (created,) = telemetry.of_kind("pool_created")
        assert created.payload["method"] == "spawn"
        assert all(r.counters.get("worker_csr_compiles") == 0 for r in results)

    def test_unknown_start_method_degrades_to_serial(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "quantum")
        before = _segment_names()
        telemetry = Telemetry()
        results = _run(Engine(jobs=2, telemetry=telemetry), graph)
        monkeypatch.delenv("REPRO_START_METHOD")
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("pool_unavailable") == 1
        assert "REPRO_START_METHOD" in telemetry.of_kind(
            "pool_unavailable"
        )[0].payload["error"]
        assert _segment_names() == before
