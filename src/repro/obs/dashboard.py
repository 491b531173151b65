"""ASCII dashboards for run ledgers (the ``repro-bisect stats`` command).

Renders one ledger as a terminal dashboard — header, the self-time tree
of its spans, counter table, histogram plots — and renders a
:func:`repro.obs.ledger.diff_ledgers` report as an explanation of a perf
delta: the span whose self time moved most, then the counters.  All
drawing is done by the existing :mod:`repro.obs.ascii` helpers; there
is nothing graphical to install.
"""

from __future__ import annotations

import time
from typing import Any

from .ascii import render_generic_table, sparkline

__all__ = ["render_ledger", "render_ledger_diff"]

#: Counters that record the engine degrading gracefully instead of dying.
#: Any nonzero value deserves a visible callout in the dashboard: the run
#: finished, but not on the path its flags asked for.
_DEGRADATIONS = {
    "engine_pool_unavailable_total": "process pool failed to start",
    "engine_pool_broken_total": "pool broke mid-batch; remaining jobs ran serially",
    "engine_shm_attach_failed_total": "shared-memory attach failed; job reran with a pickled graph",
    "engine_serial_fallbacks_total": "batch degraded to the serial path",
    "obs_shipment_dropped_total": "worker obs shipment truncated (span/series cap)",
}


def _fmt_num(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.6g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _header(ledger: dict[str, Any]) -> list[str]:
    env = ledger.get("env", {})
    # Older ledgers record the kernel backend (env.kernel) or whether the
    # CSR kernels ran (env.csr); newer ones have one kernel and neither key.
    legacy = "".join(f" {key}={env[key]}" for key in ("kernel", "csr") if key in env)
    started = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(ledger.get("started_at", 0))
    )
    lines = [
        f"run {ledger.get('run_id', '?')}",
        f"  started  {started}   wall {ledger.get('wall_seconds', 0.0):.3f}s",
        f"  env      obs={env.get('obs')}{legacy}"
        + (f" scale={env['scale']}" if env.get("scale") else ""),
    ]
    if ledger.get("argv"):
        lines.append(f"  argv     {' '.join(ledger['argv'])}")
    workload = ledger.get("workload") or {}
    if workload:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(workload.items()))
        lines.append(f"  workload {pairs}")
    return lines


def _degradation_rows(counters: dict[str, Any]) -> list[list[Any]]:
    """Nonzero degradation counters, labeled series summed into the bare name."""
    totals: dict[str, float] = {}
    for series, value in counters.items():
        bare = series.split("{", 1)[0]
        if bare in _DEGRADATIONS:
            totals[bare] = totals.get(bare, 0) + value
    return [
        [name, _fmt_num(totals[name]), _DEGRADATIONS[name]]
        for name in sorted(totals)
        if totals[name]
    ]


def _self_tree(title: str, entries: dict[str, dict[str, Any]]) -> list[str]:
    """Indented rows of a self-time split: self, total (self plus
    descendants) and count per span path, each level's heaviest first."""
    totals = {
        path: sum(
            entry["seconds"]
            for other, entry in entries.items()
            if other == path or other.startswith(path + "/")
        )
        for path in entries
    }
    children: dict[str, list[str]] = {}
    for path in entries:
        children.setdefault(path.rpartition("/")[0], []).append(path)
    lines = [title, f"{'self(s)':>9} {'total(s)':>9} {'count':>6}  span"]

    def walk(parent: str, depth: int) -> None:
        for path in sorted(children.get(parent, ()), key=lambda p: (-totals[p], p)):
            entry = entries[path]
            lines.append(
                f"{entry['seconds']:9.4f} {totals[path]:9.4f} {entry['count']:6d}  "
                f"{'  ' * depth}{path.rpartition('/')[2]}"
            )
            walk(path, depth + 1)

    walk("", 0)
    return lines


def render_ledger(ledger: dict[str, Any]) -> str:
    """One-ledger dashboard: header, spans, counters, gauges, histograms."""
    sections: list[str] = ["\n".join(_header(ledger))]

    degraded = _degradation_rows(ledger.get("counters", {}))
    if degraded:
        sections.append(
            render_generic_table(
                ["event", "count", "meaning"],
                degraded,
                title="degradations (run finished, but not on the requested path)",
            )
        )

    split = ledger.get("self_seconds")
    if split:
        owner = _self_tree(
            f"self time, owner process (self + unattributed = wall "
            f"{ledger.get('wall_seconds', 0.0):.4f}s)",
            split["owner"],
        )
        owner.append(f"{split['unattributed']:9.4f} {'':9} {'':6}  (unattributed)")
        sections.append("\n".join(owner))
        if split.get("workers"):
            sections.append(
                "\n".join(
                    _self_tree(
                        "self time, pool workers (overlaps the owner's "
                        "engine.batch; not in the sum above)",
                        split["workers"],
                    )
                )
            )

    spans = ledger.get("spans", {})
    if spans:
        names = sorted(spans, key=lambda n: -spans[n]["seconds"])
        sections.append(
            render_generic_table(
                ["span", "count", "seconds", "max(s)", "errors"],
                [
                    [
                        name,
                        spans[name].get("count", 0),
                        f"{spans[name].get('seconds', 0.0):.4f}",
                        f"{spans[name].get('max_seconds', 0.0):.4f}",
                        spans[name].get("errors", 0),
                    ]
                    for name in names
                ],
                title="span totals (inclusive seconds)",
            )
        )

    counters = ledger.get("counters", {})
    if counters:
        sections.append(
            render_generic_table(
                ["counter", "value"],
                [[name, _fmt_num(counters[name])] for name in sorted(counters)],
                title="counters",
            )
        )

    gauges = ledger.get("gauges", {})
    if gauges:
        sections.append(
            render_generic_table(
                ["gauge", "value"],
                [[name, _fmt_num(gauges[name])] for name in sorted(gauges)],
                title="gauges",
            )
        )

    histograms = ledger.get("histograms", {})
    for name in sorted(histograms):
        snap = histograms[name]
        counts = snap.get("counts", [])
        count = snap.get("count", 0)
        mean = snap["sum"] / count if count else 0.0
        sections.append(
            f"histogram {name}: count={count} sum={snap.get('sum', 0):,.4g} "
            f"mean={mean:,.4g}\n  buckets {sparkline(counts)}"
        )

    return "\n\n".join(sections)


def _diff_status(ratio: float | None, delta: float) -> str:
    if delta == 0:
        return "="
    if ratio is None:
        return "new" if delta > 0 else "gone"
    if ratio >= 1.5 or ratio <= 0.67:
        return "<<" if delta < 0 else ">>"
    return "-" if delta < 0 else "+"


def _delta_table(title: str, rows: list[dict[str, Any]]) -> str:
    return render_generic_table(
        ["span", "old(s)", "new(s)", "delta(s)", "ratio"],
        [
            [
                row["name"],
                f"{row['old']:.4f}",
                f"{row['new']:.4f}",
                f"{row['delta']:+.4f}",
                "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
            ]
            for row in rows
        ],
        title=title,
    )


def render_ledger_diff(report: dict[str, Any]) -> str:
    """Human-readable explanation of a ledger diff: the span whose self
    time moved most, self-time deltas largest first, then counters."""
    lines: list[str] = []
    old_id, new_id = report.get("run_ids", [None, None])
    lines.append(f"ledger diff: {old_id} -> {new_id}")
    wall = report.get("wall", {})
    ratio = wall.get("ratio")
    lines.append(
        f"wall: {wall.get('old', 0.0):.3f}s -> {wall.get('new', 0.0):.3f}s"
        + (f"  ({ratio:.2f}x)" if ratio else "")
    )
    self_rows = report.get("self_seconds", {})
    owner_rows = [row for row in self_rows.get("owner", []) if row["delta"] != 0]
    worker_rows = [row for row in self_rows.get("workers", []) if row["delta"] != 0]
    if owner_rows:
        top = owner_rows[0]
        lines.append(f"largest self-time change: {top['name']} ({top['delta']:+.4f}s)")
    if not report.get("same_workload", True):
        lines.append("WARNING: the two runs describe different workloads; "
                     "counter deltas may not be comparable")
    env_changes = report.get("env_changes", {})
    if env_changes:
        changes = ", ".join(
            f"{key}: {old!r} -> {new!r}" for key, (old, new) in sorted(env_changes.items())
        )
        lines.append(f"env changes: {changes}")

    for group, rows in (("owner process", owner_rows), ("pool workers", worker_rows)):
        if rows:
            lines.append(_delta_table(f"self time deltas, {group} (largest first)", rows))
    if not owner_rows:
        # Ledgers written before the self-time split: inclusive deltas only.
        span_rows = [
            {
                "name": row["name"],
                "old": row["old_seconds"],
                "new": row["new_seconds"],
                "delta": row["delta_seconds"],
                "ratio": row["ratio"],
            }
            for row in report.get("spans", [])
            if row["delta_seconds"] != 0
        ]
        if span_rows:
            lines.append(_delta_table("span time deltas", span_rows))

    counter_rows = [row for row in report.get("counters", []) if row["delta"] != 0]
    if counter_rows:
        lines.append(
            render_generic_table(
                ["counter", "old", "new", "delta", "ratio", ""],
                [
                    [
                        row["name"],
                        _fmt_num(row["old"]),
                        _fmt_num(row["new"]),
                        _fmt_num(row["delta"]),
                        "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
                        _diff_status(row["ratio"], row["delta"]),
                    ]
                    for row in counter_rows
                ],
                title="counters that moved",
            )
        )
    else:
        lines.append("no counter moved between the two runs")
    return "\n\n".join(lines)
