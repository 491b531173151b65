"""Held polls: ``GET /v1/jobs/<id>?wait=`` and the client's ``wait`` on it."""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import ServiceClient, ServiceThread
from repro.service import client as client_module
from repro.service.server import MAX_WAIT_SECONDS


@pytest.fixture
def idle():
    """A server without dispatchers: a job stays queued until the test steps it."""
    with ServiceThread(workers=0) as svc:
        yield svc


def _submit(client: ServiceClient) -> str:
    record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
    (job,) = client.submit(record["id"], "kl")
    return job["id"]


def _until(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _job_polls(client: ServiceClient) -> int:
    """``GET /v1/jobs/{id}`` requests answered 200, from the ``/metrics`` text."""
    match = re.search(
        r'^service_requests_total\{code="200",route="GET /v1/jobs/\{id\}"\} (\S+)$',
        client.metrics_text(), re.MULTILINE,
    )
    return int(float(match.group(1))) if match else 0


def test_client_cap_matches_the_server_cap():
    assert client_module._MAX_HOLD_SECONDS == MAX_WAIT_SECONDS


def test_held_poll_on_a_running_job_returns_done_when_it_finishes(idle, monkeypatch):
    runner = idle.state.runner
    release = threading.Event()
    execute = runner._execute

    def gated(handle):
        release.wait(30.0)
        return execute(handle)

    monkeypatch.setattr(runner, "_execute", gated)
    client = ServiceClient(idle.url)
    job_id = _submit(client)
    with ThreadPoolExecutor(2) as pool:
        stepping = pool.submit(runner.step)
        _until(lambda: client.job(job_id)["state"] == "running")
        poll = pool.submit(client.job, job_id, 20.0)
        time.sleep(0.2)
        assert not poll.done()
        release.set()
        status = poll.result(timeout=30.0)
        stepping.result(timeout=30.0)
    assert status["state"] == "done"
    assert status["result"]["status"] == "ok"


def test_held_poll_on_a_finished_job_returns_at_once(idle):
    client = ServiceClient(idle.url)
    job_id = _submit(client)
    idle.state.runner.step()
    began = time.monotonic()
    status = client.job(job_id, wait=20.0)
    assert time.monotonic() - began < 5.0
    assert status["state"] == "done"


def test_held_poll_on_a_cancelled_job_returns_at_once(idle):
    client = ServiceClient(idle.url)
    job_id = _submit(client)
    with ThreadPoolExecutor(1) as pool:
        poll = pool.submit(client.job, job_id, 20.0)
        time.sleep(0.2)
        assert not poll.done()
        began = time.monotonic()
        assert client.cancel(job_id)["cancelled"] is True
        status = poll.result(timeout=5.0)
    assert time.monotonic() - began < 5.0
    assert status["state"] == "cancelled"


@pytest.mark.parametrize("wait", ["-1", "abc", f"{MAX_WAIT_SECONDS + 1:g}", "nan"])
def test_bad_wait_is_a_one_line_400(idle, wait):
    client = ServiceClient(idle.url)
    job_id = _submit(client)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{idle.url}/v1/jobs/{job_id}?wait={wait}", timeout=30)
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
    assert "wait" in error and "\n" not in error


def test_wait_query_keeps_the_route_label(idle):
    client = ServiceClient(idle.url)
    job_id = _submit(client)
    before = _job_polls(client)
    client.job(job_id, wait=0.05)
    assert _job_polls(client) == before + 1
    assert "wait=" not in client.metrics_text()


def test_wait_makes_one_call_for_a_job_that_finishes_inside_one_hold(monkeypatch):
    with ServiceThread(workers=2) as svc:
        client = ServiceClient(svc.url)
        holds = []
        job = client.job

        def spy(job_id, wait=0.0):
            holds.append(wait)
            return job(job_id, wait)

        monkeypatch.setattr(client, "job", spy)
        job_id = _submit(client)
        status = client.wait(job_id, timeout=60.0)
    assert status["state"] == "done"
    assert len(holds) == 1
    # The hold stays under the socket timeout (30 s) and the server's cap.
    assert 0 < holds[0] <= min(MAX_WAIT_SECONDS, client.timeout - 1.0)


def test_wait_still_times_out_at_its_deadline(idle):
    client = ServiceClient(idle.url)
    job_id = _submit(client)
    began = time.monotonic()
    with pytest.raises(TimeoutError, match="still queued"):
        client.wait(job_id, timeout=0.5)
    assert 0.5 <= time.monotonic() - began < 5.0


def test_leaving_the_service_while_a_poll_is_held():
    with ThreadPoolExecutor(1) as pool:
        with ServiceThread(workers=0) as svc:
            client = ServiceClient(svc.url)
            job_id = _submit(client)
            poll = pool.submit(client.job, job_id, 25.0)
            time.sleep(0.2)
            assert not poll.done()
            began = time.monotonic()
        assert time.monotonic() - began < 5.0
        assert not svc._thread.is_alive()
        # Closing the runner cancels the queued job, which ends the hold.
        assert poll.result(timeout=5.0)["state"] == "cancelled"
