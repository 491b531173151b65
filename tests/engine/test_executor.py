"""Engine tests: determinism across worker counts, robustness, caching.

The determinism tests are the core contract of the subsystem: for the
same master seed, ``jobs=1`` and ``jobs=N`` must produce bitwise
identical cuts *and* partitions for every algorithm, because job seeds
are derived serially in the parent and workers merely replay them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.engine import registry
from repro.engine.cache import ResultCache
from repro.engine.executor import Engine, execute_job, retry_seed
from repro.engine.job import AlgorithmSpec, Job
from repro.engine.telemetry import Telemetry
from repro.graphs.generators import gbreg
from repro.rng import LaggedFibonacciRandom, derive_seed


@pytest.fixture(scope="module")
def graph():
    return gbreg(60, b=4, d=3, rng=11).graph


@pytest.fixture
def register(monkeypatch):
    """Register a test algorithm for one test; returns its spec."""

    def _register(algorithm):
        name = f"test_{algorithm.__name__}"
        monkeypatch.setitem(registry._BUILDERS, name, lambda: algorithm)
        return AlgorithmSpec.make(name)

    return _register


def _start_jobs(spec, seed, starts):
    master = LaggedFibonacciRandom(seed)
    return [
        Job("g", spec, derive_seed(master, index), job_id=f"start{index}")
        for index in range(starts)
    ]


class TestExecuteJob:
    def test_ok_result_carries_partition_and_counters(self, graph):
        job = Job("g", AlgorithmSpec.make("kl"), seed=5, job_id="j")
        result = execute_job(job, graph)
        assert result.ok
        assert result.cut == result.bisection(graph).cut
        assert len(result.side0) == graph.num_vertices // 2
        assert result.counters["passes"] >= 1
        assert isinstance(result.counters["pass_gains"], list)
        assert result.seeds_tried == (5,)

    def test_compaction_counters_are_nested(self, graph):
        job = Job("g", AlgorithmSpec.make("ckl"), seed=5)
        result = execute_job(job, graph)
        assert result.ok
        assert any(key.startswith("coarse_") for key in result.counters)
        assert any(key.startswith("final_") for key in result.counters)

    def test_failing_algorithm_reports_not_raises(self, graph, register):
        def explode(g, rng):
            raise RuntimeError("kaboom")

        result = execute_job(Job("g", register(explode), seed=1, retries=2), graph)
        assert result.status == "failed"
        assert result.attempts == 3
        assert "kaboom" in result.error
        assert result.seeds_tried == (1, retry_seed(1, 1), retry_seed(1, 2))

    def test_retry_recovers_with_derived_seed(self, graph, register):
        calls = []

        def flaky(g, rng):
            calls.append(rng.getrandbits(64))
            if len(calls) == 1:
                raise RuntimeError("transient")
            return SimpleNamespace(cut=7)

        result = execute_job(Job("g", register(flaky), seed=9, retries=1), graph)
        assert result.ok
        assert result.attempts == 2
        assert result.seeds_tried == (9, retry_seed(9, 1))
        # The retry really ran from the derived seed's stream.
        assert calls[1] == LaggedFibonacciRandom(retry_seed(9, 1)).getrandbits(64)


class TestRetrySeed:
    def test_deterministic_and_distinct(self):
        assert retry_seed(42, 1) == retry_seed(42, 1)
        seeds = {retry_seed(42, attempt) for attempt in range(1, 10)}
        assert len(seeds) == 9
        assert 42 not in seeds

    def test_fits_in_64_bits(self):
        assert 0 <= retry_seed(2**64 - 1, 7) < 2**64


class TestTimeout:
    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                        reason="needs SIGALRM")
    def test_timeout_reported_as_failure(self, graph, register):
        def sleepy(g, rng):
            time.sleep(5.0)

        began = time.perf_counter()
        job = Job("g", register(sleepy), seed=1, timeout=0.05, retries=1)
        result = execute_job(job, graph)
        assert time.perf_counter() - began < 2.0
        assert result.status == "failed"
        assert result.error.startswith("timeout")
        assert result.attempts == 2

    def test_timeout_does_not_sink_the_batch(self, graph, register):
        def sleepy(g, rng):
            time.sleep(5.0)

        engine = Engine()
        jobs = [
            Job("g", AlgorithmSpec.make("kl"), seed=1),
            Job("g", register(sleepy), seed=2, timeout=0.05),
            Job("g", AlgorithmSpec.make("kl"), seed=3),
        ]
        results = engine.run(jobs, {"g": graph})
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert engine.telemetry.summary()["failed"] == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            AlgorithmSpec.make("kl"),
            AlgorithmSpec.make("ckl"),
            AlgorithmSpec.make("fm"),
            AlgorithmSpec.make("sa", size_factor=2),
            AlgorithmSpec.make("csa", size_factor=2),
        ],
        ids=lambda spec: spec.name,
    )
    def test_serial_equals_parallel(self, graph, spec):
        serial = Engine(jobs=1).run(_start_jobs(spec, 9, 3), {"g": graph})
        parallel = Engine(jobs=4).run(_start_jobs(spec, 9, 3), {"g": graph})
        assert [r.cut for r in serial] == [r.cut for r in parallel]
        assert [r.side0 for r in serial] == [r.side0 for r in parallel]

    def test_matches_inprocess_spawn_chain(self, graph):
        from repro.engine.registry import build_algorithm
        from repro.rng import resolve_rng, spawn

        master = resolve_rng(9)
        kl = build_algorithm(AlgorithmSpec.make("kl"))
        expected = [kl(graph, spawn(master, index)).cut for index in range(3)]
        results = Engine(jobs=2).run(
            _start_jobs(AlgorithmSpec.make("kl"), 9, 3), {"g": graph}
        )
        assert [r.cut for r in results] == expected


class TestGracefulDegradation:
    def test_pool_unavailable_falls_back_to_serial(self, graph, monkeypatch):
        import repro.engine.executor as executor

        def broken_pool(workers, graphs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(executor, "_make_pool", broken_pool)
        engine = Engine(jobs=4)
        results = engine.run(_start_jobs(AlgorithmSpec.make("kl"), 9, 3), {"g": graph})
        assert all(r.ok for r in results)
        assert engine.telemetry.count("pool_unavailable") == 1
        serial = Engine(jobs=1).run(_start_jobs(AlgorithmSpec.make("kl"), 9, 3),
                                    {"g": graph})
        assert [r.cut for r in results] == [r.cut for r in serial]


class TestPreForkImport:
    """A batch imports its algorithms before its pool forks."""

    def test_parent_imports_the_algorithm_before_the_fork(self):
        probe = """
import sys
from repro.engine import executor
from repro.engine.job import AlgorithmSpec, Job
from repro.graphs.generators.special import ladder_graph

before = "repro.partition.kl" in sys.modules
seen = []
make_pool = executor._make_pool


def recording(workers, graphs):
    seen.append("repro.partition.kl" in sys.modules)
    return make_pool(workers, graphs)


executor._make_pool = recording
jobs = [Job("g", AlgorithmSpec.make("kl"), seed) for seed in (1, 2)]
results = executor.Engine(jobs=2).run(jobs, {"g": ladder_graph(8)})
print(before, seen, [r.ok for r in results])
"""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "[True]", "[True,", "True]"]

    def test_unknown_algorithm_still_fails_in_the_worker(self, graph):
        jobs = [
            Job("g", AlgorithmSpec.make("no_such_algorithm"), seed, job_id=f"j{seed}")
            for seed in (1, 2)
        ]
        engine = Engine(jobs=2)
        results = engine.run(jobs, {"g": graph})
        assert engine.telemetry.count("pool_created") == 1
        assert [r.status for r in results] == ["failed", "failed"]
        assert [r.error for r in results] == [execute_job(j, graph).error for j in jobs]
        assert results[0].error.startswith("KeyError: \"unknown algorithm 'no_such_algorithm'")


class TestEngineBasics:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            Engine(jobs=0)

    def test_unknown_graph_key_raises(self, graph):
        with pytest.raises(KeyError, match="unknown graph"):
            Engine().run([Job("missing", AlgorithmSpec.make("kl"), 0)], {"g": graph})

    def test_callable_algorithm_raises(self, graph):
        def kl(g, rng):
            raise AssertionError("a callable must not run")

        engine = Engine(jobs=2)
        with pytest.raises(TypeError, match="must be an AlgorithmSpec"):
            engine.run([Job("g", kl, 1), Job("g", kl, 2)], {"g": graph})
        assert engine.telemetry.count("batch_start") == 0

    def test_job_ids_are_normalized(self, graph):
        results = Engine().run(
            [Job("g", AlgorithmSpec.make("kl"), 0)], {"g": graph}
        )
        assert results[0].job_id == "job0"

    def test_results_in_submission_order(self, graph):
        jobs = _start_jobs(AlgorithmSpec.make("kl"), 3, 4)
        results = Engine(jobs=2).run(jobs, {"g": graph})
        assert [r.job_id for r in results] == [job.job_id for job in jobs]
        assert [r.seed for r in results] == [job.seed for job in jobs]


class TestResultCaching:
    def test_second_run_hits_cache_with_identical_results(self, graph, tmp_path):
        jobs = _start_jobs(AlgorithmSpec.make("kl"), 9, 3)
        first_engine = Engine(cache=ResultCache(tmp_path))
        first = first_engine.run(jobs, {"g": graph})
        assert first_engine.telemetry.count("cache_store") == 3
        assert not any(r.from_cache for r in first)

        second_engine = Engine(cache=ResultCache(tmp_path))
        second = second_engine.run(jobs, {"g": graph})
        assert second_engine.telemetry.count("cache_hit") == 3
        assert all(r.from_cache for r in second)
        assert [r.cut for r in first] == [r.cut for r in second]
        assert [r.side0 for r in first] == [r.side0 for r in second]

    def test_cache_key_distinguishes_graphs(self, graph, tmp_path):
        other = gbreg(60, b=4, d=3, rng=12).graph
        engine = Engine(cache=ResultCache(tmp_path))
        engine.run([Job("g", AlgorithmSpec.make("kl"), 1)], {"g": graph})
        engine.run([Job("g", AlgorithmSpec.make("kl"), 1)], {"g": other})
        assert engine.telemetry.count("cache_hit") == 0
        assert engine.telemetry.count("cache_store") == 2

    def test_failed_results_are_not_cached(self, graph, tmp_path, register):
        def explode(g, rng):
            raise RuntimeError("no")

        engine = Engine(cache=ResultCache(tmp_path))
        engine.run([Job("g", register(explode), 1)], {"g": graph})
        assert engine.telemetry.count("cache_store") == 0
        assert len(engine.cache) == 0

    def test_telemetry_jsonl_records_cache_traffic(self, graph, tmp_path):
        jobs = _start_jobs(AlgorithmSpec.make("kl"), 4, 2)
        Engine(cache=ResultCache(tmp_path / "c")).run(jobs, {"g": graph})
        sink = tmp_path / "events.jsonl"
        engine = Engine(cache=ResultCache(tmp_path / "c"), telemetry=Telemetry(sink))
        engine.run(jobs, {"g": graph})
        import json

        kinds = [json.loads(line)["kind"] for line in sink.read_text().splitlines()]
        assert kinds.count("cache_hit") == 2


class TestWorkerShmAttachFailureCleanup:
    """Regression: the worker-side mirror of the runner's attach/rebuild
    cleanup — a rebuild failure must close the segment and cache nothing,
    so the worker keeps serving other jobs without a leaked mapping."""

    def test_rebuild_failure_detaches_and_caches_nothing(self, monkeypatch):
        import repro.engine.executor as executor
        from repro.graphs.shm import ShmGraphRef

        closed = []

        class FakeSegment:
            name = "psm_x"

            def graph(self):
                raise RuntimeError("corrupt header")

            def close(self):
                closed.append(True)

        monkeypatch.setattr(
            executor.SharedGraphSegment, "attach",
            classmethod(lambda cls, name: FakeSegment()),
        )
        monkeypatch.setattr(executor, "_WORKER_GRAPHS", {"g": ShmGraphRef("psm_x")})
        # A pre-existing entry keeps the atexit hook from being
        # registered inside the test process.
        sentinel = SimpleNamespace(close=lambda: None)
        monkeypatch.setattr(
            executor, "_WORKER_ATTACHED", {"seed": (sentinel, None)}
        )
        with pytest.raises(RuntimeError, match="corrupt header"):
            executor._resolve_worker_graph("g")
        assert closed == [True]
        assert "psm_x" not in executor._WORKER_ATTACHED
