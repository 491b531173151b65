"""Partition persistence: the file ``run --save-partition`` writes.

Simple line format, one ``<vertex> <side>`` pair per line under a
``# repro partition k=2`` header, for downstream tools.  Vertex labels
are written as the edge-list convention in :mod:`repro.graphs.io`
writes them.
"""

from __future__ import annotations

from pathlib import Path

from .bisection import Bisection

__all__ = ["write_partition"]


def write_partition(bisection: Bisection, path: str | Path) -> None:
    """Write ``bisection`` to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write("# repro partition k=2\n")
        for v, side in bisection.assignment().items():
            stream.write(f"{v} {side}\n")
