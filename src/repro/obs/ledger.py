"""Run ledgers: one summary JSON per run, content-addressed next to the cache.

A ledger freezes everything observable about one run — wall time, the
environment toggles that shape behaviour (``REPRO_OBS``, and ``REPRO_KERNEL``
as ``env.csr``: false only for the ``dict`` reference kernels),
the workload descriptor, counter/gauge/histogram values, and per-span-name
time totals — into a single JSON document that ``repro-bisect stats`` can
render or diff later.  Ledgers are what make "why did this run get
slower?" answerable after the fact: diff two ledgers of the same workload
and read the counter deltas (heap pops, acceptance ratios, cache hits).

Counters and histograms in a ledger are the *delta over the run* (the
:func:`repro.obs.trace.run_context` snapshots the registry on entry);
gauges are the values at run end.

Storage is content-addressed: :func:`write_ledger` given a directory
names the file by the SHA-256 of the canonical ledger JSON, so identical
runs collide into one file and nothing is ever overwritten with different
content.  The default directory is ``<result cache>/ledgers``.

``schema.json`` (shipped next to this module) pins the ledger shape; the
:func:`validate_ledger` checker is a dependency-free subset of JSON
Schema (``type`` / ``required`` / ``properties`` / ``additionalProperties``
/ ``items`` / ``enum``) — enough to keep CI honest without ``jsonschema``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any

from ..kernels import kernel_backend
from .metrics import REGISTRY, MetricsRegistry, obs_enabled
from .trace import RunContext

__all__ = [
    "LEDGER_SCHEMA",
    "build_ledger",
    "diff_ledgers",
    "ledger_dir",
    "load_ledger",
    "load_schema",
    "validate_ledger",
    "write_ledger",
]

LEDGER_SCHEMA = 1

_SCHEMA_PATH = Path(__file__).with_name("schema.json")


def ledger_dir() -> Path:
    """``<result cache dir>/ledgers`` (honors ``REPRO_CACHE_DIR``)."""
    from ..engine.cache import default_cache_dir  # lazy: avoid import cycles

    return default_cache_dir() / "ledgers"


def _counter_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


def _histogram_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for name, snap in after.items():
        prior = before.get(name)
        if prior is None or prior["buckets"] != snap["buckets"]:
            delta = dict(snap)
        else:
            delta = {
                "buckets": snap["buckets"],
                "counts": [a - b for a, b in zip(snap["counts"], prior["counts"])],
                "sum": snap["sum"] - prior["sum"],
                "count": snap["count"] - prior["count"],
            }
        if delta["count"]:
            delta["sum"] = round(delta["sum"], 6)
            out[name] = delta
    return out


def build_ledger(
    run: RunContext,
    registry: MetricsRegistry | None = None,
    argv: list[str] | None = None,
) -> dict[str, Any]:
    """Summarize a finished :class:`RunContext` into a ledger dict."""
    from .buildinfo import refresh_process_gauges

    registry = registry or REGISTRY
    refresh_process_gauges(registry)
    after = registry.snapshot()
    before = run.metrics_before or {"counters": {}, "gauges": {}, "histograms": {}}
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "ledger",
        "run_id": run.run_id,
        "started_at": round(run.started_at, 6),
        "finished_at": round(run.finished_at if run.finished_at else run.started_at, 6),
        "wall_seconds": round(run.wall_seconds, 6),
        "argv": list(argv if argv is not None else sys.argv[1:]),
        "workload": dict(run.workload),
        "env": {
            "obs": obs_enabled(),
            "csr": kernel_backend() != "dict",
            "scale": os.environ.get("REPRO_SCALE"),
            "python": sys.version.split()[0],
        },
        "counters": _counter_delta(before["counters"], after["counters"]),
        "gauges": {k: round(v, 6) for k, v in after["gauges"].items()},
        "histograms": _histogram_delta(before["histograms"], after["histograms"]),
        "spans": run.collector.snapshot(),
    }


def _content_hash(ledger: dict[str, Any]) -> str:
    canonical = json.dumps(ledger, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_ledger(ledger: dict[str, Any], path: str | Path | None = None) -> str:
    """Write a ledger; returns the path written.

    ``path`` may be a file path (written as-is), a directory (the file is
    content-addressed inside it), or ``None`` (content-addressed inside
    :func:`ledger_dir`).
    """
    if path is None:
        target_dir = ledger_dir()
    else:
        path = Path(path)
        if path.is_dir() or str(path).endswith(os.sep):
            target_dir = path
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as stream:
                json.dump(ledger, stream, indent=2, sort_keys=True)
                stream.write("\n")
            return str(path)
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / f"{_content_hash(ledger)[:16]}.json"
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(ledger, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return str(target)


def load_ledger(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        ledger = json.load(stream)
    schema = ledger.get("schema")
    if schema != LEDGER_SCHEMA:
        raise ValueError(
            f"{path}: unsupported ledger schema {schema!r} (expected {LEDGER_SCHEMA})"
        )
    return ledger


def diff_ledgers(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Counter-level comparison of two ledgers (``a`` = old, ``b`` = new).

    Returns per-counter / per-gauge / per-span rows with old/new values,
    deltas, and ratios, plus workload/env comparability flags.  Refuses
    (raises ``ValueError``) to compare an instrumented run against an
    uninstrumented one — their counters are not commensurable.
    """
    if a.get("env", {}).get("obs") != b.get("env", {}).get("obs"):
        raise ValueError(
            "refusing to diff ledgers: one run was instrumented (REPRO_OBS=1) "
            "and the other was not"
        )

    def rows(section: str) -> list[dict[str, Any]]:
        old = a.get(section, {})
        new = b.get(section, {})
        out = []
        for name in sorted(set(old) | set(new)):
            ov = old.get(name, 0)
            nv = new.get(name, 0)
            out.append(
                {
                    "name": name,
                    "old": ov,
                    "new": nv,
                    "delta": round(nv - ov, 6),
                    "ratio": round(nv / ov, 4) if ov else None,
                }
            )
        return out

    span_rows = []
    old_spans = a.get("spans", {})
    new_spans = b.get("spans", {})
    for name in sorted(set(old_spans) | set(new_spans)):
        ov = old_spans.get(name, {})
        nv = new_spans.get(name, {})
        os_, ns = ov.get("seconds", 0.0), nv.get("seconds", 0.0)
        span_rows.append(
            {
                "name": name,
                "old_count": ov.get("count", 0),
                "new_count": nv.get("count", 0),
                "old_seconds": os_,
                "new_seconds": ns,
                "delta_seconds": round(ns - os_, 6),
                "ratio": round(ns / os_, 4) if os_ else None,
            }
        )

    wall_a = a.get("wall_seconds", 0.0)
    wall_b = b.get("wall_seconds", 0.0)
    return {
        "run_ids": [a.get("run_id"), b.get("run_id")],
        "same_workload": a.get("workload") == b.get("workload"),
        "env_changes": {
            key: [a.get("env", {}).get(key), b.get("env", {}).get(key)]
            for key in sorted(set(a.get("env", {})) | set(b.get("env", {})))
            if a.get("env", {}).get(key) != b.get("env", {}).get(key)
        },
        "wall": {
            "old": wall_a,
            "new": wall_b,
            "delta": round(wall_b - wall_a, 6),
            "ratio": round(wall_b / wall_a, 4) if wall_a else None,
        },
        "counters": rows("counters"),
        "gauges": rows("gauges"),
        "spans": span_rows,
    }


# -- schema validation (dependency-free JSON Schema subset) ------------------------


def load_schema() -> dict[str, Any]:
    with open(_SCHEMA_PATH, encoding="utf-8") as stream:
        return json.load(stream)


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value: Any, schema: dict[str, Any], path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}", errors)
        additional = schema.get("additionalProperties")
        if isinstance(additional, dict):
            for key, item in value.items():
                if key not in properties:
                    _validate(item, additional, f"{path}.{key}", errors)
        elif additional is False:
            for key in value:
                if key not in properties:
                    errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def validate_ledger(
    ledger: dict[str, Any], schema: dict[str, Any] | None = None
) -> list[str]:
    """Violations of the ledger schema (empty list = valid)."""
    errors: list[str] = []
    _validate(ledger, schema if schema is not None else load_schema(), "$", errors)
    return errors
