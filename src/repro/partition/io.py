"""Partition persistence: save/load bisections and k-way partitions.

Simple line format, one ``<vertex> <part>`` pair per line with a
``# repro partition k=<k>`` header — enough to hand results between the
CLI, the certifier, and downstream tools.  Vertex labels round-trip as
ints where possible (matching the edge-list convention in
:mod:`repro.graphs.io`).
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from ..graphs.graph import Graph
from .bisection import Bisection

if TYPE_CHECKING:  # kway loads KL and FM, which reading or writing never runs
    from .kway import KWayPartition

__all__ = [
    "write_partition",
    "read_partition",
    "read_bisection",
    "partition_to_string",
    "partition_from_string",
]


def _open_for(target, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8"), True
    return target, False


def _parse_label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def write_partition(
    partition: Bisection | KWayPartition, target: str | Path | TextIO
) -> None:
    """Write a bisection or k-way partition."""
    if isinstance(partition, Bisection):
        k = 2
        mapping = partition.assignment()
    else:
        from .kway import KWayPartition

        if not isinstance(partition, KWayPartition):
            raise TypeError(f"cannot serialize {type(partition).__name__}")
        k = partition.k
        mapping = partition.part_map()
    stream, owned = _open_for(target, "w")
    try:
        stream.write(f"# repro partition k={k}\n")
        for v, part in mapping.items():
            stream.write(f"{v} {part}\n")
    finally:
        if owned:
            stream.close()


def read_partition(graph: Graph, source: str | Path | TextIO) -> KWayPartition:
    """Read a partition of ``graph``; validates coverage and part indices."""
    stream, owned = _open_for(source, "r")
    try:
        k = None
        mapping: dict = {}
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:2] == ["repro", "partition"] and parts[2].startswith("k="):
                    k = int(parts[2][2:])
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"malformed partition line: {line!r}")
            mapping[_parse_label(tokens[0])] = int(tokens[1])
    finally:
        if owned:
            stream.close()

    if k is None:
        raise ValueError("missing '# repro partition k=...' header")
    missing = [v for v in graph.vertices() if v not in mapping]
    if missing:
        raise ValueError(f"partition missing {len(missing)} vertices, e.g. {missing[0]!r}")
    extra = [v for v in mapping if v not in graph]
    if extra:
        raise ValueError(f"partition names unknown vertex {extra[0]!r}")
    if any(not 0 <= p < k for p in mapping.values()):
        raise ValueError(f"part index out of range for k={k}")

    from .kway import KWayPartition

    parts = [set() for _ in range(k)]
    for v in graph.vertices():
        parts[mapping[v]].add(v)
    partition = KWayPartition(graph, tuple(frozenset(p) for p in parts))
    partition.validate()
    return partition


def read_bisection(graph: Graph, source: str | Path | TextIO) -> Bisection:
    """Read a 2-way partition file as a :class:`Bisection`."""
    partition = read_partition(graph, source)
    if partition.k != 2:
        raise ValueError(f"expected a bisection, file has k={partition.k}")
    return Bisection.from_sides(graph, partition.parts[0])


def partition_to_string(partition: Bisection | KWayPartition) -> str:
    buf = _io.StringIO()
    write_partition(partition, buf)
    return buf.getvalue()


def partition_from_string(graph: Graph, text: str) -> KWayPartition:
    return read_partition(graph, _io.StringIO(text))
