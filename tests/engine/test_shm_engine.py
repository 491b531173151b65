"""Worker pool graph sharing: lifecycle, fallbacks, start methods.

Two contracts are under test.  A pool started without graphs (the
service's :class:`~repro.engine.handles.JobRunner`) exports each graph's
CSR to shared memory exactly once, workers attach at zero compile cost,
and *every* exit path — normal completion, a worker crash, a
KeyboardInterrupt, a stale segment name — leaves ``/dev/shm`` exactly as
it found it and still returns results bitwise identical to a serial
run.  A batch's pool is born with its graphs instead: it exports
nothing, starts no resource tracker and compiles nothing in a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.engine.executor as executor
from repro.engine.executor import Engine, PoolJob, WorkerPool, _worker_run
from repro.engine.handles import JobRunner
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


def _serve(graph, telemetry: Telemetry | None = None, jobs: list[Job] | None = None):
    """``jobs`` (four KL starts by default) through the service's door: a
    two-worker :class:`JobRunner`, whose pool starts without graphs and so
    exports each one to shared memory."""
    with JobRunner(workers=2, telemetry=telemetry) as runner:
        handles = [runner.submit(job, graph) for job in jobs or _kl_batch()]
        for handle in handles:
            assert handle.wait(timeout=120.0)
    return [handle.result for handle in handles]


def _pool_run(graph, telemetry: Telemetry):
    """Four KL starts on a two-worker pool started without graphs,
    collected in this thread (so an interrupt there reaches the caller)."""
    with WorkerPool(2, telemetry) as pool:
        queued = [pool.submit(job, graph) for job in _kl_batch()]
        return [pooled.result() for pooled in queued]


def _assert_same_results(parallel, serial):
    assert [r.cut for r in parallel] == [r.cut for r in serial]
    assert [r.side0 for r in parallel] == [r.side0 for r in serial]
    assert [r.seed for r in parallel] == [r.seed for r in serial]


def _stale_create(original):
    def create(g):
        segment = original(g)
        segment.unlink()  # yank the name before any worker attaches
        return segment

    return staticmethod(create)


class TestNormalLifecycle:
    def test_export_once_attach_everywhere_unlink_on_exit(self, graph):
        before = _segment_names()
        telemetry = Telemetry()
        results = _serve(graph, telemetry)
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
        results = _serve(graph, jobs=jobs)
        serial = Engine(jobs=1).run(jobs, {"g": graph})

        _assert_same_results(results, serial)
        assert all(r.counters.get("worker_csr_compiles") == 0 for r in results)

    def test_unshareable_graph_falls_back_to_pickle(self, graph, monkeypatch):
        monkeypatch.setattr(
            SharedGraphSegment,
            "create",
            staticmethod(lambda g: (_ for _ in ()).throw(OSError("shm full"))),
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _serve(graph, telemetry)
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("shm_export_failed") == 1
        assert telemetry.count("shm_export") == 0
        assert _segment_names() == before


class TestAttachFallback:
    def test_stale_segment_degrades_to_serial_pickle_path(self, graph, monkeypatch):
        monkeypatch.setattr(
            SharedGraphSegment, "create", _stale_create(SharedGraphSegment.create)
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _serve(graph, telemetry)
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("shm_attach_failed") >= 1
        assert all(r.ok for r in results)
        assert _segment_names() == before

    def test_attach_fallback_counts_each_job_once(self, graph, monkeypatch):
        monkeypatch.setattr(
            SharedGraphSegment, "create", _stale_create(SharedGraphSegment.create)
        )
        telemetry = Telemetry()
        _serve(graph, telemetry)

        assert telemetry.count("shm_attach_failed") >= 1
        assert telemetry.summary()["jobs"] == 4
        assert telemetry.count("job_queued") == 4
        assert "degraded to serial" in telemetry.render_summary()

    def test_worker_run_reports_typed_attach_failure(self):
        result = _worker_run(Job("g", AlgorithmSpec.make("kl"), seed=1, job_id="j"),
                             ShmGraphRef("psm_repro_gone"))
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
        results = _serve(graph, telemetry, jobs)

        assert telemetry.count("pool_broken") == 1
        assert telemetry.count("shm_unlink") == 1
        # The dispatcher threads finished the jobs in the parent, where the
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
        # Ctrl-C lands while the owner waits for its first result, after
        # every job (and so the graph's segment) went to the pool.
        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(PoolJob, "result", interrupted)
        before = _segment_names()
        telemetry = Telemetry()
        with pytest.raises(KeyboardInterrupt):
            _pool_run(graph, telemetry)
        assert telemetry.count("shm_export") == 1
        assert telemetry.count("shm_unlink") == 1
        assert _segment_names() == before

    def test_keyboard_interrupt_kills_running_jobs(self, graph, monkeypatch, tmp_path):
        # The workers block SIGINT, so only the parent sees Ctrl-C; it must
        # not wait out jobs whose results the interrupted batch discards,
        # and it keeps the ones that finished before it.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        monkeypatch.setitem(registry._BUILDERS, "sleeptest", lambda: _sleep_for_a_minute)
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        before, children = _segment_names(), set(multiprocessing.active_children())
        sleep, kl = AlgorithmSpec.make("sleeptest"), AlgorithmSpec.make("kl")
        jobs = [Job("g", spec, seed, job_id=f"j{seed}")
                for seed, spec in enumerate([sleep, kl, kl, sleep])]
        engine = Engine(jobs=2, cache=tmp_path)
        ctrl_c = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
        began = time.monotonic()
        ctrl_c.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                engine.run(jobs, {"g": graph})
        finally:
            ctrl_c.cancel()

        assert time.monotonic() - began < 10.0
        assert len(engine.cache) == 2  # the two KL jobs
        assert not _children_left(children)
        assert _segment_names() == before


def _sleep_for_a_minute(graph, rng):
    time.sleep(60.0)


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
        results = _serve(graph, telemetry)
        monkeypatch.delenv("REPRO_START_METHOD")
        serial = _run(Engine(jobs=1), graph)

        _assert_same_results(results, serial)
        assert telemetry.count("pool_unavailable") == 1
        assert "REPRO_START_METHOD" in telemetry.of_kind(
            "pool_unavailable"
        )[0].payload["error"]
        assert _segment_names() == before


def _start_then_kill(original, reap: float = 10.0):
    """``WorkerPool._start`` whose workers are SIGKILLed, each waited on
    for up to ``reap`` seconds, before the first job is submitted."""

    def start(self, workers):
        pool = original(self, workers)
        for process in list(pool._processes.values()):
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the pool already ended it when its sibling died
            process.join(timeout=reap)
        return pool

    return start


def _children_left(before: set, within: float = 10.0) -> set:
    """Child processes started since ``before`` still running after ``within``."""
    deadline = time.monotonic() + within
    while True:
        left = set(multiprocessing.active_children()) - before
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


@pytest.fixture
def spawn(monkeypatch):
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")


def _sigint_blocked(pid: int) -> bool:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("SigBlk:"):
                return bool(int(line.split()[1], 16) & (1 << (signal.SIGINT - 1)))
    raise AssertionError(f"no SigBlk line for {pid}")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_started_on_demand_block_sigint(graph, method, monkeypatch):
    # Spawn and forkserver start workers as submissions need them, after the
    # constructor's first one: each must still ignore a process-group Ctrl-C.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    monkeypatch.setenv("REPRO_START_METHOD", method)
    telemetry = Telemetry()
    with executor.WorkerPool(2, telemetry) as pool:
        started = len(pool._pool._processes)
        queued = [pool.submit(job, graph) for job in _kl_batch(8)]
        results = [pooled.result() for pooled in queued]
        pids = [process.pid for process in pool._pool._processes.values()]

        assert started == 1 and len(pids) == 2
        assert all(_sigint_blocked(pid) for pid in pids)
    assert telemetry.count("pool_broken") == 0
    assert all(result.counters.get("worker_csr_compiles") == 0 for result in results)


class TestHygieneUnderSpawn:
    """The /dev/shm exit paths above, with spawned workers: a killed
    pool, an interrupt, a stale segment and an unshareable graph."""

    def test_killed_workers_still_unlink(self, graph, spawn, monkeypatch):
        monkeypatch.setattr(
            executor.WorkerPool, "_start", _start_then_kill(executor.WorkerPool._start)
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _serve(graph, telemetry)

        _assert_same_results(results, _run(Engine(jobs=1), graph))
        assert telemetry.count("pool_broken") == 1
        assert telemetry.count("shm_unlink") == telemetry.count("shm_export")
        assert _segment_names() == before

    def test_pool_broken_while_submitting_leaves_no_worker(self, graph, spawn, monkeypatch):
        # Barely waiting for the killed workers makes the batch's submissions
        # race the pool noticing their death, so it may start a worker as it
        # breaks.  That worker waits on a lock its dead sibling held; left
        # alive, it would hang this interpreter's exit.
        monkeypatch.setattr(
            executor.WorkerPool, "_start",
            _start_then_kill(executor.WorkerPool._start, reap=0.001),
        )
        before = set(multiprocessing.active_children())
        results = _run(Engine(jobs=2), graph)
        left = _children_left(before)
        for process in left:
            process.kill()
            process.join(timeout=10.0)

        _assert_same_results(results, _run(Engine(jobs=1), graph))
        assert not left

    def test_interrupt_still_unlinks(self, graph, spawn, monkeypatch):
        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(PoolJob, "result", interrupted)
        before = _segment_names()
        telemetry = Telemetry()
        with pytest.raises(KeyboardInterrupt):
            _pool_run(graph, telemetry)
        assert telemetry.count("shm_export") == 1
        assert telemetry.count("shm_unlink") == 1
        assert _segment_names() == before

    def test_stale_segment_still_unlinks(self, graph, spawn, monkeypatch):
        monkeypatch.setattr(
            SharedGraphSegment, "create", _stale_create(SharedGraphSegment.create)
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _serve(graph, telemetry)

        _assert_same_results(results, _run(Engine(jobs=1), graph))
        assert telemetry.count("shm_attach_failed") >= 1
        assert telemetry.count("pool_broken") == 0
        assert _segment_names() == before

    def test_unshareable_graph_ships_whole(self, graph, spawn, monkeypatch):
        monkeypatch.setattr(
            SharedGraphSegment,
            "create",
            staticmethod(lambda g: (_ for _ in ()).throw(OSError("shm full"))),
        )
        before = _segment_names()
        telemetry = Telemetry()
        results = _serve(graph, telemetry)

        _assert_same_results(results, _run(Engine(jobs=1), graph))
        assert telemetry.count("shm_export_failed") == 1
        assert telemetry.count("pool_created") == 1
        assert _segment_names() == before


class TestBatchWorkersBornWithGraphs:
    """A batch's workers start with its graphs: nothing goes to /dev/shm."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("algorithm", ["kl", "ckl"])
    def test_batch_exports_nothing(self, graph, method, algorithm, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", method)
        master = LaggedFibonacciRandom(0)
        spec = AlgorithmSpec.make(algorithm)
        jobs = [Job("g", spec, derive_seed(master, index), job_id=f"start{index}")
                for index in range(4)]
        before = _segment_names()
        telemetry = Telemetry()
        results = Engine(jobs=2, telemetry=telemetry).run(jobs, {"g": graph})
        monkeypatch.delenv("REPRO_START_METHOD")
        serial = Engine(jobs=1).run(jobs, {"g": graph})

        _assert_same_results(results, serial)
        (created,) = telemetry.of_kind("pool_created")
        assert created.payload["method"] == method
        assert telemetry.count("shm_export") == 0
        assert _segment_names() == before
        assert all(r.counters.get("worker_csr_compiles") == 0 for r in results)

    def test_fork_batch_starts_no_resource_tracker(self):
        # The first shared-memory segment a process creates starts
        # multiprocessing's resource tracker, a second interpreter.
        probe = """
from multiprocessing import resource_tracker
from repro.engine.executor import Engine
from repro.engine.job import AlgorithmSpec, Job
from repro.graphs.generators.special import ladder_graph

jobs = [Job("g", AlgorithmSpec.make("kl"), seed) for seed in (1, 2)]
engine = Engine(jobs=2)
results = engine.run(jobs, {"g": ladder_graph(8)})
print(engine.telemetry.count("pool_created"), [r.ok for r in results],
      resource_tracker._resource_tracker._pid)
"""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]),
                   REPRO_START_METHOD="fork")
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "[True,", "True]", "None"]
