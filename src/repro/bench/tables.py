"""Paper-style table rendering.

The appendix tables have one row per graph (or per parameter point,
averaged over seeds) with, for each base algorithm ``x`` in {SA, KL}:

    b | b_x (time) | b_cx (time) | (b_x - b_cx)/b_x x 100 | rel. speed up %

:func:`render_paper_table` produces exactly that layout as monospace text
with :func:`repro.obs.ascii.render_generic_table`, the plain column
formatter other benches (ablation sweeps, observation summaries) build on.
"""

from __future__ import annotations

from collections.abc import Sequence
from statistics import mean

from ..obs.ascii import render_generic_table
from .metrics import cut_improvement_percent, relative_speedup_percent
from .runner import RowResult

__all__ = [
    "render_paper_table",
    "aggregate_rows",
]


def aggregate_rows(rows: Sequence[RowResult]) -> list[RowResult]:
    """Average rows that share a label (the paper's 3-seeds-per-point mean).

    Cuts and times are arithmetic means over the group, rounded to one
    decimal via float cells downstream; ``expected_b`` must agree within a
    group.
    """
    grouped: dict[str, list[RowResult]] = {}
    order: list[str] = []
    for row in rows:
        if row.label not in grouped:
            order.append(row.label)
        grouped.setdefault(row.label, []).append(row)

    aggregated: list[RowResult] = []
    for label in order:
        group = grouped[label]
        expected = group[0].expected_b
        if any(r.expected_b != expected for r in group):
            raise ValueError(f"rows labelled {label!r} disagree on expected_b")
        if len(group) == 1:
            aggregated.append(group[0])
            continue
        names = group[0].cells.keys()
        cells = {}
        for name in names:
            outs = [r.cells[name] for r in group]
            # Re-wrap means in a BestOfStarts-shaped record for rendering.
            from .runner import BestOfStarts

            cells[name] = BestOfStarts(
                cut=round(mean(o.cut for o in outs), 1),
                seconds=mean(o.seconds for o in outs),
                start_cuts=tuple(o.cut for o in outs),
                start_seconds=tuple(o.seconds for o in outs),
            )
        aggregated.append(RowResult(label=label, expected_b=expected, cells=cells))
    return aggregated


def _fmt_cut(value) -> str:
    return f"{value:g}"


def render_paper_table(
    title: str,
    rows: Sequence[RowResult],
    base_pairs: Sequence[tuple[str, str]] = (("sa", "csa"), ("kl", "ckl")),
    average_seeds: bool = True,
) -> str:
    """Render rows in the appendix layout (cuts, times, improvements, speedups).

    ``base_pairs`` maps each base algorithm to its compacted variant; pairs
    missing from a row's cells are skipped (so the same renderer serves
    KL-only sweeps).
    """
    if average_seeds:
        rows = aggregate_rows(rows)

    headers = ["b"]
    for base, compacted in base_pairs:
        headers += [
            f"b{base}",
            f"t{base}(s)",
            f"b{compacted}",
            f"t{compacted}(s)",
            f"{base}: cut impr %",
            f"{base}: rel speedup %",
        ]

    table_rows = []
    for row in rows:
        cells: list[object] = [row.label if row.expected_b is None else row.expected_b]
        for base, compacted in base_pairs:
            if base not in row.cells or compacted not in row.cells:
                cells += ["-"] * 6
                continue
            plain = row.cells[base]
            comp = row.cells[compacted]
            cells += [
                _fmt_cut(plain.cut),
                f"{plain.seconds:.2f}",
                _fmt_cut(comp.cut),
                f"{comp.seconds:.2f}",
                f"{cut_improvement_percent(plain.cut, comp.cut):.1f}",
                f"{relative_speedup_percent(plain.seconds, comp.seconds):.1f}",
            ]
        table_rows.append(cells)
    return render_generic_table(headers, table_rows, title=title)
