"""JobRunner/JobHandle: states, FIFO order, cancellation, cache dedup."""

from __future__ import annotations

import os
import signal

import pytest

from repro.engine import (
    AlgorithmSpec,
    Engine,
    Job,
    JobRunner,
    ResultCache,
    Telemetry,
)
import repro.engine.executor as executor
from repro.engine.executor import execute_job
from repro.graphs.generators import gbreg
from repro.graphs.shm import SharedGraphSegment, ShmAttachError


@pytest.fixture
def graph():
    return gbreg(40, 4, 3, 0).graph


def _job(seed: int = 0, job_id: str = "j", algorithm: str = "kl") -> Job:
    return Job("g", AlgorithmSpec.make(algorithm), seed, job_id=job_id)


class TestStepMode:
    """workers=0: the test drives dispatch synchronously, no sleeps."""

    def test_submit_then_step_completes(self, graph):
        runner = JobRunner(workers=0)
        handle = runner.submit(_job(), graph)
        assert handle.state == "queued"
        assert runner.pending() == 1
        stepped = runner.step()
        assert stepped is handle
        assert handle.state == "done"
        assert handle.done
        assert handle.result.ok
        assert handle.result.cut is not None
        assert handle.queue_seconds >= 0.0

    def test_step_empty_queue_returns_none(self):
        assert JobRunner(workers=0).step() is None

    def test_fifo_within_a_lane(self, graph):
        runner = JobRunner(workers=0)
        handles = [
            runner.submit(_job(seed, job_id=f"j{seed}"), graph) for seed in range(3)
        ]
        order = [runner.step() for _ in range(3)]
        assert order == handles

    def test_cancel_queued_job_skips_execution(self, graph):
        runner = JobRunner(workers=0)
        handle = runner.submit(_job(), graph)
        assert handle.cancel() is True
        assert handle.state == "cancelled"
        stepped = runner.step()  # pops the cancelled handle, runs nothing
        assert stepped is handle
        assert handle.result is None

    def test_cancel_finished_job_is_a_noop(self, graph):
        runner = JobRunner(workers=0)
        handle = runner.submit(_job(), graph)
        runner.step()
        assert handle.cancel() is False
        assert handle.state == "done"


class TestCaching:
    def test_cache_hit_resolves_at_submit(self, graph, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = JobRunner(workers=0, cache=cache)
        first = runner.submit(_job(), graph)
        runner.step()
        assert not first.result.from_cache
        second = runner.submit(_job(), graph)
        # Never queued: the handle resolves synchronously from the store.
        assert second.state == "done"
        assert second.result.from_cache
        assert second.result.cut == first.result.cut
        assert runner.pending() == 0

    def test_cache_payload_round_trips_result_fields(self, graph, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = JobRunner(workers=0, cache=cache)
        first = runner.submit(_job(), graph)
        runner.step()
        replay = runner.submit(_job(), graph).result
        assert replay.cut == first.result.cut
        assert replay.side0 == first.result.side0
        assert replay.status == first.result.status
        assert replay.seconds == pytest.approx(first.result.seconds)

    def test_engine_and_runner_replay_each_others_results(self, graph, tmp_path):
        # Engine stores, JobRunner replays.
        cache = ResultCache(tmp_path / "engine-first")
        (stored,) = Engine(cache=cache).run([_job()], {"g": graph})
        (engine_replay,) = Engine(cache=cache).run([_job()], {"g": graph})
        runner_replay = JobRunner(workers=0, cache=cache).submit(_job(), graph).result
        assert not stored.from_cache
        assert runner_replay.from_cache
        assert runner_replay == engine_replay
        assert (runner_replay.cut, runner_replay.side0, runner_replay.seconds) == (
            stored.cut, stored.side0, stored.seconds,
        )
        # JobRunner stores, Engine replays.
        cache = ResultCache(tmp_path / "runner-first")
        runner = JobRunner(workers=0, cache=cache)
        first = runner.submit(_job(), graph)
        runner.step()
        runner_replay = runner.submit(_job(), graph).result
        (engine_replay,) = Engine(cache=cache).run([_job()], {"g": graph})
        assert not first.result.from_cache
        assert engine_replay.from_cache
        assert engine_replay == runner_replay
        assert engine_replay.counters == first.result.counters

    def test_callable_algorithm_raises(self, graph, tmp_path):
        def algo(g, rng):
            raise AssertionError("a callable must not run")

        runner = JobRunner(workers=0, cache=ResultCache(tmp_path / "cache"))
        with pytest.raises(TypeError, match="must be an AlgorithmSpec"):
            runner.submit(Job("g", algo, 0, job_id="c"), graph)
        assert runner.pending() == 0


class TestWorkerThreads:
    def test_wait_blocks_until_done(self, graph):
        with JobRunner(workers=2) as runner:
            handles = [
                runner.submit(_job(seed, f"j{seed}"), graph) for seed in range(4)
            ]
            for handle in handles:
                assert handle.wait(timeout=30.0)
            assert all(h.result.ok for h in handles)

    @pytest.mark.parametrize("algorithm", ["kl", "ckl", "sa"])
    def test_result_matches_in_process_execution(self, graph, algorithm):
        job = _job(3, "p", algorithm)
        expected = execute_job(job, graph)
        with JobRunner(workers=2) as runner:
            handle = runner.submit(job, graph)
            assert handle.wait(timeout=60.0)
        assert handle.result.ok
        assert (handle.result.cut, handle.result.side0) == (expected.cut, expected.side0)

    def test_close_cancels_queued_jobs(self, graph):
        runner = JobRunner(workers=0)  # nothing will ever run them
        handles = [runner.submit(_job(s, f"j{s}"), graph) for s in range(3)]
        runner.close()
        assert all(h.state == "cancelled" for h in handles)
        with pytest.raises(RuntimeError):
            runner.submit(_job(9, "late"), graph)

    def test_telemetry_records_lifecycle(self, graph):
        telemetry = Telemetry()
        runner = JobRunner(workers=0, telemetry=telemetry)
        runner.submit(_job(), graph)
        runner.step()
        kinds = [e.kind for e in telemetry.events]
        assert kinds == ["job_queued", "job_start", "job_finish"]



class TestWorkerProcesses:
    """workers >= 1: jobs run in the pool's processes, graphs via shm."""

    def test_each_graph_exported_once_and_unlinked_on_close(self, graph):
        other = gbreg(40, 4, 3, 1).graph
        telemetry = Telemetry()
        jobs = [(_job(seed, f"j{seed}"), graph) for seed in range(4)]
        jobs += [(Job("h", AlgorithmSpec.make("kl"), seed, job_id=f"h{seed}"), other)
                 for seed in range(4)]
        with JobRunner(workers=2, telemetry=telemetry) as runner:
            submitted = [runner.submit(job, g) for job, g in jobs]
            for handle in submitted:
                assert handle.wait(timeout=60.0)
        assert telemetry.count("pool_created") == 1
        exports = telemetry.of_kind("shm_export")
        assert sorted(e.payload["graph_key"] for e in exports) == ["g", "h"]
        assert telemetry.count("shm_unlink") == 2
        for event in exports:
            with pytest.raises(ShmAttachError):
                SharedGraphSegment.attach(event.payload["segment"])
        for (job, g), handle in zip(jobs, submitted):
            assert handle.result.cut == execute_job(job, g).cut
            assert handle.result.counters["worker_csr_compiles"] == 0

    def test_stale_segment_ships_the_graph_whole(self, graph, monkeypatch):
        original = SharedGraphSegment.create

        def stale_create(g):
            segment = original(g)
            segment.unlink()  # yank the name before any worker attaches
            return segment

        monkeypatch.setattr(SharedGraphSegment, "create", staticmethod(stale_create))
        telemetry = Telemetry()
        with JobRunner(workers=2, telemetry=telemetry) as runner:
            handle = runner.submit(_job(5), graph)
            assert handle.wait(timeout=60.0)
            # The key now ships whole: no second failed attach.
            later = runner.submit(_job(6, "k"), graph)
            assert later.wait(timeout=60.0)
            assert runner.pool._segments == {}
        assert telemetry.count("shm_attach_failed") == 1
        assert telemetry.count("shm_unlink") == 1
        assert telemetry.count("pool_broken") == 0
        for seed, done in ((5, handle), (6, later)):
            assert done.result.ok
            assert done.result.cut == execute_job(_job(seed), graph).cut

    def test_pool_unavailable_runs_jobs_in_thread(self, graph, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(executor, "_make_pool", broken_pool)
        telemetry = Telemetry()
        with JobRunner(workers=2, telemetry=telemetry) as runner:
            handle = runner.submit(_job(4), graph)
            assert handle.wait(timeout=60.0)
        assert telemetry.count("pool_unavailable") == 1
        assert telemetry.count("shm_export") == 0
        assert handle.result.cut == execute_job(_job(4), graph).cut

    def test_dead_worker_degrades_to_in_thread(self, graph):
        telemetry = Telemetry()
        with JobRunner(workers=2, telemetry=telemetry) as runner:
            for process in list(runner.pool._pool._processes.values()):
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the pool already ended it when its sibling died
                process.join(timeout=10.0)
            first, second = (runner.submit(_job(s, f"j{s}"), graph) for s in (6, 7))
            assert first.wait(timeout=60.0) and second.wait(timeout=60.0)
        assert telemetry.count("pool_broken") == 1
        for seed, handle in zip((6, 7), (first, second)):
            assert handle.result.cut == execute_job(_job(seed), graph).cut

    @pytest.mark.parametrize("error", [OSError("broken pipe"), RuntimeError("after shutdown")])
    def test_failed_submit_still_finishes_the_handle(self, graph, error):
        telemetry = Telemetry()
        with JobRunner(workers=2, telemetry=telemetry) as runner:
            pool = runner.pool._pool

            def failing_submit(*args, **kwargs):
                raise error

            pool.submit = failing_submit
            handle = runner.submit(_job(8), graph)
            assert handle.wait(timeout=60.0)
            # Only a broken pool is dropped; other errors cost one job.
            assert (runner.pool._pool is None) == isinstance(error, OSError)
            del pool.submit
        assert telemetry.count("pool_broken") == int(isinstance(error, OSError))
        assert handle.result.ok
        assert handle.result.cut == execute_job(_job(8), graph).cut
