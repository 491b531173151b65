"""Unit tests for the partition file ``run --save-partition`` writes."""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.partition.bisection import Bisection
from repro.partition.io import write_partition


def _read_sides(path) -> tuple[str, dict[str, int]]:
    """The header line and the ``label -> side`` map of a partition file."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header, {label: int(side) for label, side in map(str.split, lines)}


class TestBisectionRoundtrip:
    def test_roundtrip(self, tmp_path, small_grid):
        b = Bisection.from_sides(small_grid, range(8))
        path = tmp_path / "p.txt"
        write_partition(b, path)
        header, sides = _read_sides(path)
        assert header == "# repro partition k=2"
        assert Bisection(small_grid, {int(v): s for v, s in sides.items()}) == b

    def test_file_roundtrip(self, tmp_path, small_grid):
        # Byte for byte: the header, then one "<vertex> <side>" line per vertex.
        b = Bisection.from_sides(small_grid, range(8))
        path = tmp_path / "p.txt"
        write_partition(b, str(path))
        expected = "".join(f"{v} {b.side_of(v)}\n" for v in small_grid.vertices())
        assert path.read_text(encoding="utf-8") == "# repro partition k=2\n" + expected

    def test_string_labels(self, tmp_path):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        b = Bisection.from_sides(g, ["a", "b"])
        path = tmp_path / "p.txt"
        write_partition(b, path)
        assert _read_sides(path)[1] == {"a": 0, "b": 0, "c": 1, "d": 1}
