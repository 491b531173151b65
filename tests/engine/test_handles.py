"""JobRunner/JobHandle: states, fair lanes, cancellation, cache dedup."""

from __future__ import annotations

import pytest

from repro.engine import (
    AlgorithmSpec,
    Engine,
    Job,
    JobRunner,
    ResultCache,
    Telemetry,
)
from repro.graphs.generators import gbreg


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

    def test_round_robin_across_lanes(self, graph):
        runner = JobRunner(workers=0)
        a = [runner.submit(_job(s, f"a{s}"), graph, lane="a") for s in range(3)]
        runner.submit(_job(9, "b0"), graph, lane="b")
        # A tenant with three queued jobs must not starve tenant b: b's
        # single job runs second, not last.
        processed = [runner.step().job.job_id for _ in range(4)]
        assert processed.index("b0") == 1
        assert [h.done for h in a] == [True, True, True]

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
        assert handle.cancel_requested


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

