"""A stdlib HTTP client for the partitioning service.

Thin :mod:`urllib.request` wrapper used by ``study --remote``, the
benchmark's service workload, and the CI smoke job — anything that wants
to talk to a running ``repro-bisect serve`` without pulling in a
dependency.

A :class:`ServiceClient` holds no mutable state beyond configuration, so
concurrent calls are safe in practice; ``study --remote`` still builds
one client per worker thread to keep accounting unambiguous.
"""

from __future__ import annotations

import http.client
import json
import sys
import urllib.error
import urllib.request
from typing import Any

from ..obs.clock import monotonic_time

__all__ = ["ServiceClient", "ServiceClientError"]

#: The server's cap on one held poll (``server.MAX_WAIT_SECONDS``).
_MAX_HOLD_SECONDS = 30.0


class ServiceClientError(Exception):
    """An HTTP-level failure: carries the status code and server message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """JSON client for one service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ----------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: dict[str, Any] | None = None) -> Any:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                detail = detail.strip() or exc.reason
            raise ServiceClientError(exc.code, str(detail)) from exc
        except urllib.error.URLError as exc:
            raise ServiceClientError(0, f"cannot reach {url}: {exc.reason}") from exc
        except (ConnectionError, http.client.HTTPException, TimeoutError) as exc:
            # Mid-stream transport failures (reset while reading the
            # response, truncated chunks) surface raw from http.client.
            raise ServiceClientError(0, f"transport error for {url}: {exc}") from exc
        if not body:
            return None
        return json.loads(body)

    # -- endpoints ----------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/health")

    def algorithms(self) -> list[str]:
        return self._request("GET", "/v1/algorithms")["algorithms"]

    def upload_graph(self, edges_text: str) -> dict[str, Any]:
        """Upload an edge-list serialization; returns the graph record."""
        return self._request("POST", "/v1/graphs", {"edges": edges_text})

    def generate_graph(self, generator: str,
                       **params: Any) -> dict[str, Any]:
        """Ask the server to build a generator graph; returns its record."""
        return self._request(
            "POST", "/v1/graphs", {"generator": generator, "params": params}
        )

    def list_graphs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/graphs")["graphs"]

    def graph(self, graph_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/graphs/{graph_id}")

    def submit(self, graph_id: str, algorithm: str,
               params: dict[str, Any] | None = None,
               seed: int = 0, starts: int = 1,
               seeds: list[int] | None = None) -> list[dict[str, Any]]:
        """Submit jobs; returns their records (id / state / cache_key)."""
        payload: dict[str, Any] = {"graph": graph_id, "algorithm": algorithm}
        if params:
            payload["params"] = params
        if seeds is not None:
            payload["seeds"] = seeds
        else:
            payload["seed"] = seed
            payload["starts"] = starts
        return self._request("POST", "/v1/jobs", payload)["jobs"]

    def job(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """One job's status; ``wait`` > 0 lets the server hold the answer
        until the job is done or cancelled, at most that many seconds."""
        query = f"?wait={wait:.3f}" if wait > 0 else ""
        return self._request("GET", f"/v1/jobs/{job_id}{query}")

    def jobs(self, state: str | None = None) -> list[dict[str, Any]]:
        path = "/v1/jobs" + (f"?state={state}" if state else "")
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 60.0) -> dict[str, Any]:
        """Hold polls on one job until it is done or cancelled; returns its status.

        Each poll asks the server to hold it for the time left, capped by
        the server's limit and kept under this client's socket timeout.
        Raises :class:`TimeoutError` when ``timeout`` elapses first.
        """
        deadline = monotonic_time() + timeout
        hold_cap = min(_MAX_HOLD_SECONDS, self.timeout - min(1.0, self.timeout / 2))
        while True:
            left = deadline - monotonic_time()
            status = self.job(job_id, wait=min(left, hold_cap))
            if status["state"] in ("done", "cancelled"):
                return status
            if monotonic_time() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )

    def result(self, cache_key: str) -> dict[str, Any]:
        """Fetch a stored result payload by content address.

        ``side0`` tokens come back interned, so payloads a caller keeps
        for one graph share one string per vertex instead of a copy each.
        """
        payload = self._request("GET", f"/v1/results/{cache_key}")
        side0 = payload.get("side0") if isinstance(payload, dict) else None
        if isinstance(side0, list):
            payload["side0"] = [
                sys.intern(token) if type(token) is str else token for token in side0
            ]
        return payload

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/metrics``."""
        url = self.base_url + "/metrics"
        request = urllib.request.Request(url)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.URLError as exc:
            raise ServiceClientError(0, f"cannot scrape {url}: {exc}") from exc
