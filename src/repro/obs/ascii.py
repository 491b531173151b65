"""Tiny ASCII visualization helpers for examples and CLI output.

Pure-text sparklines, horizontal bars, histograms and aligned tables —
enough to show a cooling curve, a cut distribution or a counter table in
a terminal without any plotting dependency.  The module imports nothing
from the library, so the ledger dashboards, the study tables and the
check report can render without loading the engine or the bench.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["sparkline", "horizontal_bars", "histogram", "render_generic_table"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of ``values`` (empty string for no data).

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[min(top, int((v - lo) / span * top + 0.5))] for v in values
    )


def horizontal_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    fill: str = "#",
) -> str:
    """Labelled horizontal bar chart, scaled to the max value.

    >>> print(horizontal_bars(["a", "bb"], [2, 4], width=4))
     a ##   2
    bb #### 4
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        return ""
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    peak = max(values) or 1
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = fill * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append(f"{label.rjust(label_width)} {bar.ljust(width)} {value:g}")
    return "\n".join(lines)


def histogram(values: Sequence[float], bins: int = 10, width: int = 40) -> str:
    """Text histogram of ``values`` with ``bins`` equal-width buckets."""
    if not values:
        return ""
    if bins < 1:
        raise ValueError("bins must be positive")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return horizontal_bars([f"{lo:g}"], [len(values)], width)
    span = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        # ``span`` rounds to 0.0 when the range is a few subnormals wide.
        offset = (v - lo) / span if span else (v - lo) / (hi - lo) * bins
        counts[min(bins - 1, int(offset))] += 1
    labels = [f"[{lo + i * span:.3g}, {lo + (i + 1) * span:.3g})" for i in range(bins)]
    return horizontal_bars(labels, counts, width)


def render_generic_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Format rows as an aligned monospace table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
