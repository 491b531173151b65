"""HTTP layer: routes, status codes, auth, metrics — over a real socket."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.engine import ResultCache, Telemetry
from repro.graphs.generators import gbreg
from repro.graphs.io import graph_to_string
from repro.service import ServiceClient, ServiceClientError, ServiceThread


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
        ("/v1/jobs", {"algorithm": "kl", "timeout": "x"}),
        ("/v1/jobs", {"algorithm": "kl", "starts": 2_000_000}),
    ],
    ids=["malformed-json", "params-list", "edges-list", "params-fractional",
         "params-bool", "retries-str", "timeout-str", "starts-over-limit"],
)
def test_bad_payload_is_a_one_line_4xx(service, client, monkeypatch, path, body):
    def no_derivation(*args):
        raise AssertionError("seed derived for a rejected submission")

    monkeypatch.setattr("repro.service.state.start_seeds", no_derivation)
    record = client.generate_graph("gbreg", vertices=20, width=2, degree=3)
    before = client.health(), client._request("GET", "/v1/tenants")
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
    health, tenants = client.health(), client._request("GET", "/v1/tenants")
    assert (health["jobs"], health["graphs"]) == (before[0]["jobs"], before[0]["graphs"])
    assert tenants == before[1]


def test_api_keys_enforced(tmp_path):
    with ServiceThread(
        workers=0, api_keys={"sekrit": {"name": "alice", "max_inflight": 1}}
    ) as svc:
        anonymous = ServiceClient(svc.url)
        with pytest.raises(ServiceClientError) as excinfo:
            anonymous.list_graphs()
        assert excinfo.value.status == 401

        alice = ServiceClient(svc.url, api_key="sekrit")
        record = alice.generate_graph("gbreg", vertices=20, width=2, degree=3)
        alice.submit(record["id"], "kl", seed=0)
        with pytest.raises(ServiceClientError) as excinfo:
            alice.submit(record["id"], "kl", seed=1)  # quota: 1 in flight
        assert excinfo.value.status == 429

        # Health stays public even in keyed mode.
        assert anonymous.health()["open_mode"] is False


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
