"""Partitioning-as-a-service: HTTP/JSON job server and client.

The service layer is the long-running front door over the same engine the
CLI batch commands use — submit a job through ``repro-bisect run``,
``repro-bisect batch``, or ``POST /v1/jobs`` and you get the identical
result bit for bit, served from the same content-addressed cache.

* :mod:`repro.service.state` — graph store, job table, server-wide caps;
* :mod:`repro.service.server` — stdlib ``ThreadingHTTPServer`` front end;
* :mod:`repro.service.client` — ``urllib`` JSON client.

Everything is stdlib-only and instrumented through :mod:`repro.obs`, so
``GET /metrics`` exposes engine and service metrics in one scrape.
"""

from .client import ServiceClient, ServiceClientError
from .server import ServiceServer, ServiceThread, make_server
from .state import (
    NotFoundError,
    QuotaError,
    ServiceError,
    ServiceState,
    ValidationError,
)

__all__ = [
    "NotFoundError",
    "QuotaError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceServer",
    "ServiceState",
    "ServiceThread",
    "ValidationError",
    "make_server",
]
