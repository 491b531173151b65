"""Tier-1 concurrency coverage: shared cache and telemetry under threads.

The satellite contract: two (or more) threads sharing one
:class:`ResultCache` and one :class:`Telemetry` sink must not corrupt
JSONL lines or double-execute a cached job.  Synchronization is by
``JobHandle.wait()`` / ``thread.join()`` only — no sleeps, so the tests
are deterministic and fast.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.engine import AlgorithmSpec, Job, JobRunner, ResultCache, Telemetry
from repro.graphs.generators import gbreg
from repro.obs import REGISTRY


def _job(seed: int, job_id: str) -> Job:
    return Job("g", AlgorithmSpec.make("kl"), seed, job_id=job_id)


def test_identical_jobs_across_threads_execute_once(tmp_path):
    """16 submissions of one cache identity -> exactly one execution."""
    graph = gbreg(40, 4, 3, 0).graph
    telemetry = Telemetry()
    runner = JobRunner(
        workers=4, cache=ResultCache(tmp_path / "cache"), telemetry=telemetry
    )
    handles: list = []
    submit_lock = threading.Lock()

    def submitter(prefix: str) -> None:
        for index in range(8):
            handle = runner.submit(_job(7, f"{prefix}{index}"), graph)
            with submit_lock:
                handles.append(handle)

    threads = [
        threading.Thread(target=submitter, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(handles) == 16
    for handle in handles:
        assert handle.wait(timeout=60.0)
    runner.close()

    results = [h.result for h in handles]
    assert all(r.ok for r in results)
    # One cut, computed once: every other submission replayed the store.
    assert len({r.cut for r in results}) == 1
    executed = [r for r in results if not r.from_cache]
    assert len(executed) == 1
    assert telemetry.count("cache_store") == 1
    assert telemetry.count("cache_hit") == 15


def test_shared_jsonl_sink_has_no_torn_lines(tmp_path):
    """Concurrent emitters through one Telemetry file: every line parses."""
    graph = gbreg(24, 4, 3, 0).graph
    sink = tmp_path / "events.jsonl"
    telemetry = Telemetry(sink)
    runner = JobRunner(
        workers=4, cache=ResultCache(tmp_path / "cache"), telemetry=telemetry
    )
    handles = []

    def submitter(prefix: str, base: int) -> None:
        # Distinct seeds per submitter: every submission executes (a
        # submit-time cache hit would resolve immediately and skip
        # job_start/job_finish).
        for index in range(6):
            handles.append(runner.submit(_job(base + index, f"{prefix}{index}"), graph))

    threads = [
        threading.Thread(target=submitter, args=(name, base))
        for name, base in (("x", 0), ("y", 100))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for handle in list(handles):
        assert handle.wait(timeout=60.0)
    runner.close()

    lines = sink.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]  # raises on a torn line
    assert len(records) == len(telemetry.events)
    finishes = [r for r in records if r["kind"] == "job_finish"]
    assert len(finishes) == 12
    assert all(r["status"] == "ok" for r in finishes)


def test_worker_shipments_merge_without_lost_updates():
    """Four dispatchers (more than the cores) merging worker shipments and
    exporting graphs at once: every KL run is counted and each graph is
    exported once."""
    REGISTRY.reset()
    graphs = {f"g{i}": gbreg(40, 4, 3, i).graph for i in range(3)}
    telemetry = Telemetry()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with JobRunner(workers=4, telemetry=telemetry) as runner:
            handles = [
                runner.submit(Job(key, AlgorithmSpec.make("kl"), seed, job_id=f"{key}-{seed}"), g)
                for seed in range(8)
                for key, g in graphs.items()
            ]
            for handle in handles:
                assert handle.wait(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert all(h.result.ok for h in handles)
    assert telemetry.count("shm_export") == 3
    assert REGISTRY.counter("kl_runs_total").value == 24
    assert REGISTRY.counter("engine_jobs_total").value == 24


def test_direct_telemetry_emit_is_thread_safe(tmp_path):
    """Raw emit() from many threads: in-memory list and file stay consistent."""
    sink = tmp_path / "raw.jsonl"
    telemetry = Telemetry(sink)

    def emitter(tag: str) -> None:
        for index in range(50):
            telemetry.emit("tick", f"{tag}{index}", payload_size=index)

    threads = [threading.Thread(target=emitter, args=(t,)) for t in "abcd"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(telemetry.events) == 200
    lines = sink.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200
    assert all(json.loads(line)["kind"] == "tick" for line in lines)
