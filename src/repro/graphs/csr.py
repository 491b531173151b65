"""Array-backed CSR view of a :class:`~repro.graphs.graph.Graph`.

The dict-of-dicts adjacency map is the right construction-time structure,
but its hashed label lookups dominate every profile of the KL/FM/SA inner
loops.  :class:`CSRGraph` is a frozen compressed-sparse-row snapshot of a
graph — contiguous integer vertex ids and flat ``indptr`` / ``indices`` /
``edge_weight`` / ``vertex_weight`` arrays (``array('q')``) — that the hot
kernels index instead.  It is compiled once per graph, cached on the
:class:`Graph` instance, and invalidated automatically by any mutation.

Determinism contract (what makes the CSR kernels *bitwise-equivalent* to
the dict kernels):

* vertex ids follow the graph's insertion order, so every loop that walks
  ``graph.vertices()`` — gain initialization, RNG-driven vertex draws —
  visits the same vertices in the same order on both paths;
* :attr:`CSRGraph.rank` maps each id to the position of its label in
  *sorted label order*.  The dict kernels' heaps break gain ties by
  comparing labels; the CSR kernels break them by comparing ranks, which
  orders identically.  When labels are not mutually comparable (mixed
  ``int`` and ``str``, say) the rank is insertion order instead — the
  dict kernels would fail on such a tie, so this order is a definition,
  not a reproduction, and it depends on nothing but the label sequence.

``REPRO_KERNEL=dict`` (see :mod:`repro.kernels`) runs the label-keyed
reference kernels instead; the equivalence test matrix uses it to prove
both paths produce identical cuts, assignments, and traces.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import accumulate, compress, islice
from operator import mul, ne, sub

from .graph import Graph, Vertex

__all__ = [
    "CSRGraph",
    "cached_csr",
    "csr_cut_weight",
    "csr_move_gains",
    "csr_side_weights",
    "csr_view",
    "label_ranks",
]


def label_ranks(labels: list[Vertex]) -> tuple[list[int], list[int]]:
    """``(rank, by_rank)`` of the id-indexed ``labels`` (see module docstring).

    ``by_rank`` lists ids in sorted label order and ``rank`` inverts it;
    labels that do not sort keep insertion order.  Pure in ``labels``, so
    a worker attaching a shared-memory CSR derives the same ranks.
    """
    n = len(labels)
    try:
        by_rank = sorted(range(n), key=labels.__getitem__)
    except TypeError:
        return list(range(n)), list(range(n))
    rank = [0] * n
    for position, i in enumerate(by_rank):
        rank[i] = position
    return rank, by_rank


class CSRGraph:
    """Frozen CSR snapshot of a graph (see module docstring).

    The canonical storage is four ``array('q')`` buffers; the kernels ask
    for plain-list mirrors (:meth:`neighbor_lists`, :meth:`adjacency_maps`,
    ...) which are materialized lazily and cached, because list indexing
    avoids the int re-boxing cost of ``array`` subscripts in hot loops.

    >>> g = Graph.from_edges([("a", "b"), ("b", "c")])
    >>> view = csr_view(g)
    >>> view.num_vertices, view.num_edges
    (3, 2)
    >>> list(view.indptr)
    [0, 1, 3, 4]
    >>> [view.labels[i] for i in view.indices]
    ['b', 'a', 'c', 'b']
    """

    __slots__ = (
        "labels",
        "index_of",
        "rank",
        "by_rank",
        "indptr",
        "indices",
        "edge_weight",
        "vertex_weight",
        "heads",
        "num_vertices",
        "num_edges",
        "total_edge_weight",
        "total_vertex_weight",
        "max_weighted_degree",
        "unit_edge_weights",
        "unit_vertex_weights",
        "_lists",
    )

    def __init__(self, graph: Graph) -> None:
        labels = list(graph.vertices())
        n = len(labels)
        index_of: dict[Vertex, int] = {v: i for i, v in enumerate(labels)}

        indptr = array("q", [0] * (n + 1))
        indices = array("q")
        edge_weight = array("q")
        heads = array("q")
        vertex_weight = array("q", (graph.vertex_weight(v) for v in labels))

        max_wd = 0
        unit_edges = True
        for i, v in enumerate(labels):
            wd = 0
            for u, w in graph.adjacency(v).items():
                indices.append(index_of[u])
                edge_weight.append(w)
                heads.append(i)
                wd += w
                if w != 1:
                    unit_edges = False
            indptr[i + 1] = len(indices)
            if wd > max_wd:
                max_wd = wd

        self.labels = labels
        self.index_of = index_of
        self.rank, self.by_rank = label_ranks(labels)
        self.indptr = indptr
        self.indices = indices
        self.edge_weight = edge_weight
        self.vertex_weight = vertex_weight
        self.heads = heads
        self.num_vertices = n
        self.num_edges = graph.num_edges
        self.total_edge_weight = graph.total_edge_weight
        self.total_vertex_weight = sum(vertex_weight)
        self.max_weighted_degree = max_wd
        self.unit_edge_weights = unit_edges
        self.unit_vertex_weights = all(w == 1 for w in vertex_weight)
        self._lists: dict[str, object] = {}

    # -- lazy plain-list mirrors for the kernels ----------------------------------

    def _list(self, name: str, build) -> list:
        cached = self._lists.get(name)
        if cached is None:
            cached = build()
            self._lists[name] = cached
        return cached

    def neighbor_lists(self) -> list[list[int]]:
        """Per-vertex neighbor-id lists (``indices`` sliced by ``indptr``)."""

        def build() -> list[list[int]]:
            flat = list(self.indices)
            ptr = self.indptr
            return [flat[ptr[i] : ptr[i + 1]] for i in range(self.num_vertices)]

        return self._list("neighbors", build)

    def weight_lists(self) -> list[list[int]]:
        """Per-vertex edge-weight lists, parallel to :meth:`neighbor_lists`."""

        def build() -> list[list[int]]:
            flat = list(self.edge_weight)
            ptr = self.indptr
            return [flat[ptr[i] : ptr[i + 1]] for i in range(self.num_vertices)]

        return self._list("weights", build)

    def adjacency_maps(self) -> list[dict[int, int]]:
        """Per-vertex ``neighbor id -> edge weight`` dicts (O(1) pair lookups)."""

        def build() -> list[dict[int, int]]:
            nbrs = self.neighbor_lists()
            wts = self.weight_lists()
            return [dict(zip(nbrs[i], wts[i])) for i in range(self.num_vertices)]

        return self._list("adjacency", build)

    def weighted_degrees(self) -> list[int]:
        """Per-vertex sums of incident edge weights."""

        def build() -> list[int]:
            if self.unit_edge_weights:
                ptr = self.indptr
                return [ptr[i + 1] - ptr[i] for i in range(self.num_vertices)]
            wts = self.weight_lists()
            return [sum(row) for row in wts]

        return self._list("weighted_degrees", build)

    def vertex_weight_list(self) -> list[int]:
        """Plain-list mirror of the ``vertex_weight`` array."""
        return self._list("vertex_weights", lambda: list(self.vertex_weight))

    def weight_classes(self) -> tuple[list[int], list[int]]:
        """``(class_of, class_weights)``: vertex-weight classes by first appearance.

        ``class_of[i]`` is vertex ``i``'s class id; class ``c`` holds the
        vertices of weight ``class_weights[c]``, and ids are numbered in
        the order each weight first appears in id order — the order the
        KL kernels scan classes in.
        """

        def build() -> tuple[list[int], list[int]]:
            ids: dict[int, int] = {}
            class_of = [ids.setdefault(w, len(ids)) for w in self.vertex_weight_list()]
            return class_of, list(ids)

        return self._list("weight_classes", build)

    def head_tail_lists(self) -> tuple[list[int], list[int], list[int]]:
        """``(heads, indices, edge_weight)`` as lists — one row per directed slot."""

        def build() -> tuple[list[int], list[int], list[int]]:
            return list(self.heads), list(self.indices), list(self.edge_weight)

        return self._list("head_tail", build)

    # -- assignment translation ---------------------------------------------------

    def sides_list(self, assignment: Mapping[Vertex, int]) -> list[int]:
        """The label-keyed side map as an id-indexed list."""
        get = assignment.__getitem__
        return [get(v) for v in self.labels]

    def assignment_dict(self, sides: list[int]) -> dict[Vertex, int]:
        """An id-indexed side list as a label-keyed dict (insertion order)."""
        return dict(zip(self.labels, sides))


def csr_view(graph: Graph) -> CSRGraph:
    """The graph's CSR snapshot, compiling and caching it on first use."""
    derived = graph._derived
    csr = derived.get("csr")
    if csr is None:
        from ..obs import counter, histogram, obs_enabled  # cycle-safe, cheap
        from ..obs.clock import monotonic_time

        if obs_enabled():
            began = monotonic_time()
            csr = CSRGraph(graph)
            histogram("csr_compile_seconds").observe(monotonic_time() - began)
            counter("csr_compiles_total").inc()
        else:
            csr = CSRGraph(graph)
        derived["csr"] = csr
    return csr


def cached_csr(graph: Graph) -> CSRGraph | None:
    """The cached CSR snapshot, or ``None`` — never triggers a compile.

    Fast-path helpers (:func:`csr_cut_weight` callers like
    ``cut_weight``) use this so that casual one-off queries on a graph
    no one is partitioning do not pay the compile.
    """
    return graph._derived.get("csr")


def csr_move_gains(csr: CSRGraph, sides: list[int]) -> list[int]:
    """Per-vertex move gains (cut reduction of flipping each vertex alone).

    The shared gain-initialization of the KL and FM kernels; inner sums run
    at C level (``sum(map(...))``).  With weighted edges (contracted
    graphs) one prefix sum over the per-slot ``weight * side`` products
    replaces the per-row sums: row ``i``'s side-1 weight is
    ``csum[indptr[i + 1]] - csum[indptr[i]]``.
    """
    sides_get = sides.__getitem__
    if not csr.unit_edge_weights:
        _, tails, weights = csr.head_tail_lists()
        csum = list(accumulate(map(mul, weights, map(sides_get, tails)), initial=0))
        bounds = list(map(csum.__getitem__, csr.indptr))
        return [
            wdeg - 2 * s1 if side else 2 * s1 - wdeg
            for s1, wdeg, side in zip(
                map(sub, islice(bounds, 1, None), bounds), csr.weighted_degrees(), sides
            )
        ]
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    gains = [0] * n
    for i in range(n):
        row = nbrs[i]
        s1 = sum(map(sides_get, row))
        gains[i] = 2 * s1 - len(row) if sides[i] == 0 else len(row) - 2 * s1
    return gains


def csr_cut_weight(csr: CSRGraph, sides: list[int]) -> int:
    """Cut weight of the partition ``sides`` (id-indexed 0/1 list).

    Scans the directed-slot arrays with C-level ``map``/``compress``
    pipelines; every directed edge is counted once per endpoint, hence the
    final halving.
    """
    heads, tails, weights = csr.head_tail_lists()
    get = sides.__getitem__
    crossing = map(ne, map(get, heads), map(get, tails))
    if csr.unit_edge_weights:
        return sum(crossing) // 2
    return sum(compress(weights, crossing)) // 2


def csr_side_weights(csr: CSRGraph, sides: list[int]) -> tuple[int, int]:
    """Total vertex weight on side 0 and side 1 of ``sides``."""
    if csr.unit_vertex_weights:
        w1 = sum(sides)
        return csr.num_vertices - w1, w1
    w1 = sum(compress(csr.vertex_weight_list(), sides))
    return csr.total_vertex_weight - w1, w1
