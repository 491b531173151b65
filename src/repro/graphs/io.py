"""Graph serialization: simple edge-list and DIMACS-like formats.

Two formats are supported:

* **edge list** (``.edges``): one ``u v [weight]`` triple per line, with
  optional ``# vertex <v> <weight>`` directives for isolated or weighted
  vertices and ``#``-prefixed comments.
* **DIMACS** (``.dimacs``/``.col`` style): the classic
  ``p edge <n> <m>`` header with ``e u v [w]`` edge lines and optional
  ``n v w`` vertex-weight lines.  Vertices are 1-based in the file and
  0-based in memory, matching common partitioning tool conventions.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import TextIO

from .graph import Graph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_dimacs",
    "read_dimacs",
    "graph_to_string",
    "graph_from_string",
]


def _open_for(target, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8"), True
    return target, False


# -- edge list ---------------------------------------------------------------------


def write_edge_list(graph: Graph, target: str | Path | TextIO) -> None:
    """Write ``graph`` in edge-list format to a path or text stream."""
    stream, owned = _open_for(target, "w")
    try:
        stream.write(f"# repro edge list |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        covered = set()
        for u, v, w in graph.edges():
            covered.add(u)
            covered.add(v)
            if w == 1:
                stream.write(f"{u} {v}\n")
            else:
                stream.write(f"{u} {v} {w}\n")
        for v in graph.vertices():
            weight = graph.vertex_weight(v)
            if v not in covered or weight != 1:
                stream.write(f"# vertex {v} {weight}\n")
    finally:
        if owned:
            stream.close()


def read_edge_list(source: str | Path | TextIO) -> Graph:
    """Read an edge-list file written by :func:`write_edge_list`.

    Vertex labels are parsed as ``int`` when possible, else kept as strings.
    """
    stream, owned = _open_for(source, "r")

    def parse_label(token: str):
        try:
            return int(token)
        except ValueError:
            return token

    try:
        g = Graph()
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "vertex":
                    g.add_vertex(parse_label(parts[1]), int(parts[2]))
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"malformed edge line: {line!r}")
            u, v = parse_label(parts[0]), parse_label(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
            g.add_edge(u, v, w)
        return g
    finally:
        if owned:
            stream.close()


# -- DIMACS ------------------------------------------------------------------------


def write_dimacs(graph: Graph, target: str | Path | TextIO, comment: str = "") -> None:
    """Write ``graph`` in DIMACS format.

    Graphs whose vertices are already ``0..n-1`` are written as-is (so the
    round-trip is exact); any other labels are relabeled to ``0..n-1`` in
    insertion order.
    """
    if set(graph.vertices()) == set(range(graph.num_vertices)):
        relabeled, mapping = graph, {}
    else:
        relabeled, mapping = graph.relabeled()
    stream, owned = _open_for(target, "w")
    try:
        if comment:
            for line in comment.splitlines():
                stream.write(f"c {line}\n")
        stream.write(f"p edge {relabeled.num_vertices} {relabeled.num_edges}\n")
        for v in relabeled.vertices():
            w = relabeled.vertex_weight(v)
            if w != 1:
                stream.write(f"n {v + 1} {w}\n")
        for u, v, w in relabeled.edges():
            if w == 1:
                stream.write(f"e {u + 1} {v + 1}\n")
            else:
                stream.write(f"e {u + 1} {v + 1} {w}\n")
    finally:
        if owned:
            stream.close()
    # mapping intentionally discarded: DIMACS is a canonical 0..n-1 dump.
    del mapping


def read_dimacs(source: str | Path | TextIO) -> Graph:
    """Read a DIMACS ``p edge`` file; returns a graph on vertices ``0..n-1``."""
    stream, owned = _open_for(source, "r")
    try:
        g = Graph()
        declared_edges = None
        for line in stream:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "p":
                if len(parts) != 4 or parts[1] not in ("edge", "col"):
                    raise ValueError(f"malformed problem line: {line!r}")
                n, declared_edges = int(parts[2]), int(parts[3])
                for v in range(n):
                    g.add_vertex(v)
            elif kind == "n":
                g.add_vertex(int(parts[1]) - 1, int(parts[2]))
            elif kind == "e":
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                w = int(parts[3]) if len(parts) == 4 else 1
                g.add_edge(u, v, w)
            else:
                raise ValueError(f"unknown DIMACS line kind {kind!r}: {line!r}")
        if declared_edges is not None and g.num_edges != declared_edges:
            raise ValueError(
                f"DIMACS header declares {declared_edges} edges, file has {g.num_edges}"
            )
        return g
    finally:
        if owned:
            stream.close()


# -- strings (convenience for tests/doctests) ---------------------------------------


def graph_to_string(graph: Graph, fmt: str = "edges") -> str:
    """Serialize a graph to a string in ``"edges"`` or ``"dimacs"`` format."""
    buf = _io.StringIO()
    if fmt == "edges":
        write_edge_list(graph, buf)
    elif fmt == "dimacs":
        write_dimacs(graph, buf)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return buf.getvalue()


def graph_from_string(text: str, fmt: str = "edges") -> Graph:
    """Parse a graph from a string in ``"edges"`` or ``"dimacs"`` format."""
    buf = _io.StringIO(text)
    if fmt == "edges":
        return read_edge_list(buf)
    if fmt == "dimacs":
        return read_dimacs(buf)
    raise ValueError(f"unknown format {fmt!r}")
