"""Independent checks of every bisection the benchmark gets back.

A :class:`Reference` holds a graph's edges and vertex weights as plain
tuples, taken once from the generated input.  It recounts the cut of a
returned side-0 vertex set and checks balance with its own arithmetic, so
a bug in the program's cut bookkeeping cannot hide behind the same bug in
the check.  Four forms of returned sides are read: a library
``Bisection``, the ``side0`` tokens of an engine ``JobResult`` or of a
service result payload, and a ``--save-partition`` file.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path
from typing import Any

__all__ = ["Reference", "min_imbalance", "token"]


def token(v: Any) -> str:
    """The engine's vertex token format: ``<type name>:<label>``."""
    return f"{type(v).__name__}:{v}"


def min_imbalance(weights: Iterable[int]) -> int:
    """Smallest achievable ``|w(A) - w(B)|`` over all splits (subset sum)."""
    reachable = 1
    total = 0
    for w in weights:
        reachable |= reachable << w
        total += w
    for s in range(total // 2, -1, -1):
        if (reachable >> s) & 1:
            return total - 2 * s
    return total


class Reference:
    """A graph as plain data, for recounting cuts and checking balance."""

    def __init__(self, edges: Iterable[tuple[Any, Any, int]], weights: dict[Any, int]):
        self.edges = tuple(edges)
        self.weights = dict(weights)
        self.total_weight = sum(self.weights.values())
        self.tolerance = min_imbalance(self.weights.values())
        self._by_token = {token(v): v for v in self.weights}
        self._by_text = {str(v): v for v in self.weights}

    @classmethod
    def of_graph(cls, graph) -> "Reference":
        """Take the edge and weight tables from a ``repro`` graph."""
        return cls(graph.edges(), {v: graph.vertex_weight(v) for v in graph.vertices()})

    def check(self, side0: Iterable[Any], reported_cut: Any) -> str | None:
        """``None`` when ``side0`` is a balanced bisection whose cut is
        ``reported_cut``; otherwise a one-line reason."""
        zero = set(side0)
        unknown = [v for v in zero if v not in self.weights]
        if unknown:
            return f"unknown vertex {unknown[0]!r} on side 0"
        cut = sum(w for u, v, w in self.edges if (u in zero) != (v in zero))
        if reported_cut != cut:
            return f"reported cut {reported_cut!r} but sides cut {cut}"
        w0 = sum(self.weights[v] for v in zero)
        imbalance = abs(self.total_weight - 2 * w0)
        if imbalance > self.tolerance:
            return f"imbalance {imbalance} exceeds tolerance {self.tolerance}"
        return None

    def check_tokens(self, side0: Iterable[str], reported_cut: Any) -> str | None:
        """Check engine/service ``side0`` tokens (``"int:17"``)."""
        vertices = []
        for item in side0:
            v = self._by_token.get(item)
            if v is None:
                return f"unknown vertex token {item!r}"
            vertices.append(v)
        if not vertices:
            return "no side-0 vertices returned"
        return self.check(vertices, reported_cut)

    def check_partition_file(self, path: str | Path, reported_cut: Any) -> str | None:
        """Check a ``--save-partition`` file (``# repro partition k=2`` + lines)."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0].strip() != "# repro partition k=2":
            return "partition file lacks the k=2 header"
        side0 = []
        seen = set()
        for line in lines[1:]:
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 2 or fields[1] not in ("0", "1"):
                return f"malformed partition line {line!r}"
            v = self._by_text.get(fields[0])
            if v is None:
                return f"unknown vertex {fields[0]!r} in partition file"
            if v in seen:
                return f"vertex {fields[0]!r} listed twice in partition file"
            seen.add(v)
            if fields[1] == "0":
                side0.append(v)
        if len(seen) != len(self.weights):
            return f"partition file covers {len(seen)} of {len(self.weights)} vertices"
        return self.check(side0, reported_cut)
