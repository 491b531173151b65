"""Content-addressed on-disk result cache.

A cached result is addressed by the SHA-256 of its full identity:
canonical graph fingerprint (:func:`~repro.graphs.graph.graph_fingerprint`),
algorithm name, canonical parameter pairs, seed, and a schema version.
Anything that could change the outcome is part of the key, so a hit is
always safe to reuse; timings are replayed as recorded.

Layout (under ``REPRO_CACHE_DIR``, default ``~/.cache/repro-bisect``)::

    <root>/<key[:2]>/<key>.json

Each file is one JSON object, written by
:meth:`~repro.engine.job.JobResult.to_payload`::

    {"status": "ok", "cut": 14, "side0": ["int:0", "int:3", ...],
     "seconds": 0.21, "attempts": 1, "counters": {"passes": 4, ...}}

Writes are atomic (temp file + ``os.replace``) so concurrent workers and
interrupted runs never leave a torn entry; unreadable entries are treated
as misses.

Both job doors — the batch :class:`~repro.engine.executor.Engine` and the
service's :class:`~repro.engine.handles.JobRunner` — key, look up and
store results through :func:`job_cache_key`, :func:`lookup_result` and
:func:`store_result`, so a result one door stored replays identically
through the other.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from ..graphs.graph import graph_fingerprint
from ..obs import counter
from .job import AlgorithmSpec, Job, JobResult
from .telemetry import Telemetry

__all__ = [
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "job_cache_key",
    "lookup_result",
    "store_result",
]

# Bump when the payload schema or execution semantics change incompatibly.
_SCHEMA_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-bisect``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-bisect"


def cache_key(fingerprint: str, spec: AlgorithmSpec, seed: int) -> str:
    """Content address for one (graph, algorithm, params, seed) cell."""
    identity = json.dumps(
        [_SCHEMA_VERSION, fingerprint, spec.name, list(spec.params), seed],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def job_cache_key(
    job: Job,
    graph: Any,
    telemetry: Telemetry,
    fingerprints: dict[str, str | None] | None = None,
) -> str | None:
    """``job``'s cache key against ``graph``, or ``None`` when uncacheable.

    Graphs without a canonical fingerprint (a hypergraph netlist) run
    uncached.  ``fingerprints`` memoizes the fingerprint per graph key
    across a batch.
    """
    memo = fingerprints if fingerprints is not None else {}
    if job.graph_key not in memo:
        try:
            memo[job.graph_key] = graph_fingerprint(graph)
        except (AttributeError, TypeError):
            memo[job.graph_key] = None
            telemetry.emit("uncacheable_graph", job.job_id, graph_key=job.graph_key)
    fingerprint = memo[job.graph_key]
    if fingerprint is None:
        return None
    return cache_key(fingerprint, job.algorithm, job.seed)


def lookup_result(
    cache: ResultCache, key: str, job: Job, telemetry: Telemetry
) -> JobResult | None:
    """The stored result for ``job`` under ``key``, or ``None`` on a miss.

    A hit emits the ``cache_hit`` event and counts it; misses are counted
    by the caller, which knows whether this is a first look or a re-check.
    """
    payload = cache.get(key)
    if payload is None:
        return None
    telemetry.emit("cache_hit", job.job_id, key=key)
    counter("engine_cache_hits_total").inc()
    return JobResult.from_payload(job, payload)


def store_result(
    cache: ResultCache, key: str | None, result: JobResult, telemetry: Telemetry
) -> None:
    """Store ``result`` under ``key`` when it succeeded and is cacheable."""
    if key is None or not result.ok:
        return
    cache.put(key, result.to_payload())
    telemetry.emit("cache_store", result.job_id, key=key)
    counter("engine_cache_stores_total").inc()


class ResultCache:
    """Filesystem store mapping cache keys to result payload dicts."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload, or ``None`` on miss / unreadable entry."""
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as stream:
                return json.load(stream)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` atomically under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, sort_keys=True)
        os.replace(tmp, path)

    def entries(self) -> Iterator[Path]:
        """Paths of every stored result (skips ledgers and stray files).

        Result entries live exactly one two-hex-character shard below the
        root; anything else under the root (the ``ledgers/`` directory,
        temp files) is not a cache entry.
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            yield from sorted(shard.glob("*.json"))

    def stats(self) -> dict[str, Any]:
        """Entry count, total payload bytes, and oldest/newest write times."""
        count = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for path in self.entries():
            try:
                meta = path.stat()
            except OSError:
                continue  # entry pruned/replaced underneath us
            count += 1
            total_bytes += meta.st_size
            if oldest is None or meta.st_mtime < oldest:
                oldest = meta.st_mtime
            if newest is None or meta.st_mtime > newest:
                newest = meta.st_mtime
        return {
            "root": str(self.root),
            "entries": count,
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, max_bytes: int) -> dict[str, Any]:
        """Evict oldest entries (by mtime) until total size <= ``max_bytes``.

        Returns ``{"removed": n, "freed_bytes": b, "kept_bytes": k}``.
        Ledgers and non-entry files are never touched.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        sized: list[tuple[float, int, Path]] = []
        for path in self.entries():
            try:
                meta = path.stat()
            except OSError:
                continue
            sized.append((meta.st_mtime, meta.st_size, path))
        total = sum(size for _, size, _ in sized)
        removed = 0
        freed = 0
        for _, size, path in sorted(sized, key=lambda item: (item[0], item[2].name)):
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # already gone: someone else pruned it
            removed += 1
            freed += size
        return {"removed": removed, "freed_bytes": freed, "kept_bytes": total - freed}

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
