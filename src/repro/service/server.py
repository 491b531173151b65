"""The HTTP/JSON front door: stdlib ``ThreadingHTTPServer`` over ServiceState.

Zero dependencies — :class:`http.server.ThreadingHTTPServer` plus the
:mod:`json` module.  One handler thread per connection feeds
:class:`~repro.service.state.ServiceState`; actual compute happens in the
:class:`~repro.engine.handles.JobRunner`'s worker processes, so a slow job
neither blocks the HTTP accept loop nor holds this process's GIL.

Routes (all JSON):

===========================  =====================================================
``GET  /v1/health``           liveness + worker/queue counts
``GET  /v1/algorithms``       registered graph algorithms
``POST /v1/graphs``           upload (``{"edges": ...}``) or generate
                              (``{"generator": ..., "params": {...}}``) a graph
``GET  /v1/graphs``           list stored graphs
``GET  /v1/graphs/<id>``      one graph record (id = canonical fingerprint)
``POST /v1/jobs``             submit jobs (algorithm x params x seeds)
``GET  /v1/jobs``             list jobs (``?state=`` filter)
``GET  /v1/jobs/<id>``        poll one job (result inlined when done);
                              ``?wait=<s>`` holds the answer until the job
                              is done or cancelled, at most ``s`` seconds
``DELETE /v1/jobs/<id>``      cancel a queued job
``GET  /v1/results/<key>``    fetch a stored result by content address
``GET  /metrics``             Prometheus text exposition of the obs registry
===========================  =====================================================

Every request is measured into ``service_requests_total{method,route,code}``
and ``service_request_seconds{route}`` and wrapped in an obs span, so the
existing ``/metrics`` scrape and run ledgers cover the service for free.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from ..engine.handles import JobRunner
from ..obs import REGISTRY, counter, histogram, obs_enabled, span
from ..obs.buildinfo import refresh_process_gauges
from ..obs.clock import monotonic_time
from .state import ServiceError, ServiceState

__all__ = ["ServiceServer", "ServiceThread", "make_server"]

#: Maximum accepted request body (64 MiB edge lists are plenty).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Longest a ``GET /v1/jobs/<id>?wait=`` poll may hold its answer.
MAX_WAIT_SECONDS = 30.0


def _route_label(method: str, path: str) -> str:
    """Collapse a concrete path to its route template for metric labels.

    Keeps metric cardinality bounded: every ``/v1/jobs/<id>`` poll lands
    on one ``/v1/jobs/{id}`` series instead of one series per job.
    """
    parts = [p for p in path.split("/") if p]
    if len(parts) >= 2 and parts[0] == "v1" and parts[1] in ("graphs", "jobs", "results"):
        if len(parts) == 2:
            return f"{method} /v1/{parts[1]}"
        return f"{method} /v1/{parts[1]}/{{id}}"
    return f"{method} {path}"


def _wait_seconds(query: dict[str, list[str]]) -> float:
    """The ``?wait=`` hold of a job poll: 0 when absent."""
    values = query.get("wait")
    if not values:
        return 0.0
    try:
        wait = float(values[-1])
    except ValueError:
        wait = -1.0
    if not 0.0 <= wait <= MAX_WAIT_SECONDS:  # NaN fails this too
        raise _HttpError(
            400, f"'wait' must be a number of seconds from 0 to {MAX_WAIT_SECONDS:g}"
        )
    return wait


class _Handler(BaseHTTPRequestHandler):
    """Request handler: routing, JSON envelope, request metrics."""

    server_version = "repro-bisect-service/1.0"
    protocol_version = "HTTP/1.1"

    # Set by make_server().
    state: ServiceState = None  # type: ignore[assignment]
    quiet: bool = True

    # -- plumbing -----------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HttpError(400, "request body required")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    # -- dispatch -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = _route_label(method, path)
        began = monotonic_time()
        code = 500
        try:
            if obs_enabled():
                with span("service.request", route=route):
                    code = self._route(method, path)
            else:
                code = self._route(method, path)
        except _HttpError as exc:
            code = exc.code
            self._send_json(exc.code, {"error": exc.message})
        except ServiceError as exc:
            code = exc.http_status
            self._send_json(code, {"error": str(exc)})
        except BrokenPipeError:
            # Client went away mid-response; nothing to send, just record it.
            code = 499
            counter("service_client_disconnects_total").inc()
        except Exception as exc:  # last-resort 500: log, respond, keep serving
            self.state.runner.telemetry.emit(
                "service_error", route=route, error=f"{type(exc).__name__}: {exc}"
            )
            try:
                self._send_json(500, {"error": f"internal error: {type(exc).__name__}"})
            except OSError as send_exc:
                self.state.runner.telemetry.emit(
                    "service_error", route=route,
                    error=f"response write failed: {send_exc}",
                )
        finally:
            counter("service_requests_total", route=route, code=str(code)).inc()
            histogram("service_request_seconds", route=route).observe(
                monotonic_time() - began
            )

    def _route(self, method: str, path: str) -> int:
        state = self.state
        parts = [p for p in path.split("/") if p]
        query = parse_qs(self.path.partition("?")[2])

        if method == "GET" and path == "/metrics":
            refresh_process_gauges()
            self._send_text(200, REGISTRY.render_prometheus(),
                            "text/plain; version=0.0.4")
            return 200

        if not parts or parts[0] != "v1":
            raise _HttpError(404, f"unknown path {path!r}")
        parts = parts[1:]

        if method == "GET" and parts == ["health"]:
            self._send_json(200, state.health())
            return 200
        if method == "GET" and parts == ["algorithms"]:
            self._send_json(200, {"algorithms": state.health()["algorithms"]})
            return 200

        if parts and parts[0] == "graphs":
            if method == "POST" and len(parts) == 1:
                record = state.create_graph(self._read_json())
                self._send_json(201, record)
                return 201
            if method == "GET" and len(parts) == 1:
                self._send_json(200, {"graphs": state.list_graphs()})
                return 200
            if method == "GET" and len(parts) == 2:
                self._send_json(200, state.graph_record(parts[1]))
                return 200
            raise _HttpError(405, f"{method} not supported on {path!r}")

        if parts and parts[0] == "jobs":
            if method == "POST" and len(parts) == 1:
                records = state.submit_jobs(self._read_json())
                self._send_json(202, {"jobs": records})
                return 202
            if method == "GET" and len(parts) == 1:
                state_filter = (query.get("state") or [None])[0]
                self._send_json(200, {"jobs": state.list_jobs(state_filter)})
                return 200
            if method == "GET" and len(parts) == 2:
                self._send_json(200, state.job_status(parts[1], _wait_seconds(query)))
                return 200
            if method == "DELETE" and len(parts) == 2:
                self._send_json(200, state.cancel_job(parts[1]))
                return 200
            raise _HttpError(405, f"{method} not supported on {path!r}")

        if parts and parts[0] == "results":
            if method == "GET" and len(parts) == 2:
                self._send_json(200, state.result_by_key(parts[1]))
                return 200
            raise _HttpError(405, f"{method} not supported on {path!r}")

        raise _HttpError(404, f"unknown path {path!r}")


class _HttpError(Exception):
    """Routing-layer error with an HTTP status (distinct from ServiceError)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ServiceState`."""

    daemon_threads = True
    # The stdlib backlog of 5 drops/resets connections under a burst of
    # concurrent clients (each client request opens its own TCP
    # connection); a deeper accept queue absorbs it.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], state: ServiceState,
                 quiet: bool = True) -> None:
        handler = type("BoundHandler", (_Handler,), {"state": state, "quiet": quiet})
        super().__init__(address, handler)
        self.state = state

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and shut the worker pool down."""
        self.shutdown()
        self.server_close()
        self.state.runner.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    cache: Any = None,
    telemetry: Any = None,
    quiet: bool = True,
) -> ServiceServer:
    """Build a ready-to-serve :class:`ServiceServer` (port 0 = ephemeral)."""
    runner = JobRunner(workers=workers, cache=cache, telemetry=telemetry)
    state = ServiceState(runner)
    return ServiceServer((host, port), state, quiet=quiet)


class ServiceThread:
    """Context manager running a service on a background thread.

    The in-process harness tests and CI smoke jobs use this::

        with ServiceThread(workers=2, cache=tmp_cache) as svc:
            client = ServiceClient(svc.url)
            ...
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = make_server(**kwargs)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="service-http", daemon=True
        )

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def state(self) -> ServiceState:
        return self.server.state

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.server.close()
        self._thread.join(timeout=5.0)
        return False
