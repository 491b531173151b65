"""HTTP layer: routes, status codes, caps, metrics — over a real socket."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.engine import ResultCache, Telemetry
from repro.graphs.generators import gbreg
from repro.graphs.io import graph_to_string
from repro.obs import REGISTRY
from repro.service import ServiceClient, ServiceClientError, ServiceThread
from repro.service.state import MAX_INFLIGHT_JOBS


@pytest.fixture
def service(tmp_path):
    with ServiceThread(
        workers=2, cache=ResultCache(tmp_path / "cache"), telemetry=Telemetry()
    ) as svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def test_health_and_algorithms(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert "ckl" in client.algorithms()


def test_upload_submit_poll_fetch_round_trip(client):
    graph = gbreg(30, 3, 3, 0).graph
    record = client.upload_graph(graph_to_string(graph))
    assert record["vertices"] == 30
    (job,) = client.submit(record["id"], "kl", seed=2)
    status = client.wait(job["id"], timeout=60.0)
    assert status["state"] == "done"
    result = status["result"]
    assert result["status"] == "ok"
    # Content-address fetch returns the identical payload.
    payload = client.result(status["cache_key"])
    assert payload["cut"] == result["cut"]
    assert payload["side0"]
    # Payloads kept for one graph share their vertex tokens.
    again = client.result(status["cache_key"])
    assert again == payload
    assert all(a is b for a, b in zip(again["side0"], payload["side0"]))


def test_resubmit_is_served_from_cache(client):
    record = client.generate_graph("gbreg", vertices=30, width=3, degree=3, seed=0)
    (first,) = client.submit(record["id"], "kl", seed=5)
    done = client.wait(first["id"], timeout=60.0)
    assert done["result"]["from_cache"] is False
    (second,) = client.submit(record["id"], "kl", seed=5)
    replay = client.wait(second["id"], timeout=60.0)
    assert replay["result"]["from_cache"] is True
    assert replay["result"]["cut"] == done["result"]["cut"]
    assert replay["cache_key"] == done["cache_key"]


def test_server_side_generation_matches_local_build(client):
    record = client.generate_graph("gbreg", vertices=30, width=3, degree=3, seed=4)
    from repro.graphs.graph import graph_fingerprint

    assert record["id"] == graph_fingerprint(gbreg(30, 3, 3, 4).graph)


def test_cancel_over_http(service):
    # workers keep the queue drained, so cancel may race completion;
    # use a 0-worker server for a deterministic cancel.
    with ServiceThread(workers=0) as idle:
        client = ServiceClient(idle.url)
        record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
        (job,) = client.submit(record["id"], "kl")
        outcome = client.cancel(job["id"])
        assert outcome == {"cancelled": True, "id": job["id"], "state": "cancelled"}


def test_error_statuses(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.graph("0000deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit("0000deadbeef", "kl")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client.job("j999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("POST", "/v1/graphs", {"nonsense": 1})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("GET", "/v1/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("DELETE", "/v1/graphs/abc")
    assert excinfo.value.status == 405


@pytest.mark.parametrize(
    "path, body",
    [
        ("/v1/graphs", b"{not json"),
        ("/v1/graphs", {"generator": "gbreg", "params": [1]}),
        ("/v1/graphs", {"edges": [[0, 1]]}),
        ("/v1/graphs", {"generator": "gbreg",
                        "params": {"vertices": 20.9, "width": 2.5}}),
        ("/v1/graphs", {"generator": "gbreg", "params": {"vertices": True}}),
        ("/v1/jobs", {"algorithm": "kl", "retries": "x"}),
        ("/v1/jobs", {"algorithm": "kl", "retries": 1}),
        ("/v1/jobs", {"algorithm": "kl", "timeout": "x"}),
        ("/v1/jobs", {"algorithm": "kl", "starts": 2_000_000}),
    ],
    ids=["malformed-json", "params-list", "edges-list", "params-fractional",
         "params-bool", "retries-str", "retries-int", "timeout-str",
         "starts-over-limit"],
)
def test_bad_payload_is_a_one_line_4xx(service, client, monkeypatch, path, body):
    def no_derivation(*args):
        raise AssertionError("seed derived for a rejected submission")

    monkeypatch.setattr("repro.service.state.start_seeds", no_derivation)
    record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
    before = client.health()
    if path == "/v1/jobs":
        body = {"graph": record["id"], **body}
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        service.url + path, data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
    assert 400 <= excinfo.value.code < 500
    assert error and "\n" not in error
    assert "internal error" not in error
    health = client.health()
    assert (health["jobs"], health["graphs"]) == (before["jobs"], before["graphs"])


def test_job_timeout_is_rejected(client):
    # Without a pool, jobs run on dispatcher threads, where no deadline can
    # interrupt them, so a per-job timeout would sometimes be ignored.
    record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
    with pytest.raises(ServiceClientError) as excinfo:
        client._request(
            "POST", "/v1/jobs",
            {"graph": record["id"], "algorithm": "kl", "timeout": 0.01},
        )
    assert excinfo.value.status == 400
    assert "timeout" in str(excinfo.value)
    assert "\n" not in str(excinfo.value)
    assert client.health()["jobs"] == 0


def test_inflight_cap_is_a_one_line_429():
    with ServiceThread(workers=0) as svc:  # no workers: submitted jobs stay queued
        client = ServiceClient(svc.url)
        record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
        client.submit(record["id"], "kl", seed=MAX_INFLIGHT_JOBS)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(record["id"], "kl", seeds=list(range(MAX_INFLIGHT_JOBS)))
        assert excinfo.value.status == 429
        assert excinfo.value.message and "\n" not in excinfo.value.message
        assert client.health()["jobs"] == 1


def test_submission_past_the_cap_is_a_one_line_400():
    with ServiceThread(workers=0) as svc:
        client = ServiceClient(svc.url)
        record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(record["id"], "kl", seed=0, starts=MAX_INFLIGHT_JOBS + 1)
        assert excinfo.value.status == 400
        assert excinfo.value.message and "\n" not in excinfo.value.message
        assert client.health()["jobs"] == 0


def test_metrics_scrape_includes_service_series(client):
    record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
    (job,) = client.submit(record["id"], "kl")
    client.wait(job["id"], timeout=60.0)
    text = client.metrics_text()
    assert "service_requests_total" in text
    assert "service_request_seconds" in text
    assert "engine_queue_wait_seconds" in text
    # Route templates keep cardinality bounded: the per-id polls all land
    # on one {id} series.
    assert 'route="GET /v1/jobs/{id}"' in text
    assert job["id"] not in text


def test_metrics_keep_algorithm_counters(tmp_path):
    # One CKL job runs KL twice (coarse and fine level); both runs must
    # reach the server's /metrics wherever the job executed.
    REGISTRY.reset()
    with ServiceThread(workers=2, cache=ResultCache(tmp_path / "cache")) as svc:
        client = ServiceClient(svc.url)
        record = client.generate_graph("gbreg", vertices=60, width=4, degree=3, seed=1)
        (job,) = client.submit(record["id"], "ckl", seed=3)
        done = client.wait(job["id"], timeout=60.0)
        assert done["result"]["status"] == "ok"
        lines = client.metrics_text().splitlines()
    assert "kl_runs_total 2" in lines
    assert "engine_jobs_total 1" in lines


def test_ctrl_c_stops_serve_without_worker_tracebacks():
    # Ctrl-C reaches the server's whole process group; the worker
    # processes leave the shutdown to the server, which drains them.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline().startswith("serving on ")
        os.killpg(proc.pid, signal.SIGINT)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130
    assert "Traceback" not in output


def _serve(workers: int = 2, **environ: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]),
               PYTHONUNBUFFERED="1", **environ)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers), "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("serving on "), line
    return proc, line.split()[-1]


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
            return stream.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> set[int]:
    kids = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                kids.add(int(entry))
    return kids


def _gone(pids: set[int], within: float) -> bool:
    """True once none of ``pids`` runs (an unreaped zombie counts as gone)."""
    deadline = time.monotonic() + within
    while True:
        running = {pid for pid in pids if (_stat_fields(pid) or ["Z"])[0] != "Z"}
        if not running or time.monotonic() > deadline:
            return not running
        time.sleep(0.1)


def _segment_names() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _descendants(pid: int) -> set[int]:
    found, frontier = set(), {pid}
    while frontier:
        frontier = set().union(*map(_children, frontier)) - found
        found |= frontier
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_sigkilled_serve_leaves_no_workers(method):
    # The workers watch their parent: the server, or the fork server that
    # exits with it.  Killed without any chance to drain its pool, the
    # server must not leave them behind, adopted by init.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    proc, _ = _serve(REPRO_START_METHOD=method)
    try:
        workers = _descendants(proc.pid)
        assert len(workers) >= 2
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert _gone(workers, within=10.0)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_sigterm_stops_serve_through_close():
    before = _segment_names()
    proc, url = _serve()
    try:
        workers = _children(proc.pid)
        client = ServiceClient(url)
        record = client.generate_graph("gbreg", vertices=40, width=4, degree=3)
        (job,) = client.submit(record["id"], "kl", seed=1)
        assert client.wait(job["id"], timeout=60.0)["result"]["status"] == "ok"
        assert _segment_names() - before  # the graph went to shared memory
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM
    assert "Traceback" not in output
    assert _segment_names() == before
    assert _gone(workers, within=10.0)
