"""Array-backed CSR view of a :class:`~repro.graphs.graph.Graph`.

The dict-of-dicts adjacency map is the right construction-time structure,
but its hashed label lookups dominate every profile of the KL/FM/SA inner
loops.  :class:`CSRGraph` is a frozen compressed-sparse-row snapshot of a
graph — contiguous integer vertex ids and flat ``indptr`` / ``indices`` /
``edge_weight`` / ``vertex_weight`` arrays (``array('q')``) — that the hot
kernels index instead.  It is cached on the :class:`Graph` instance and
invalidated automatically by any mutation.  A view is born one of three
ways, all through the one constructor: :func:`csr_view` compiles a
graph's on first use (:meth:`CSRGraph.compile`); contraction
(:func:`repro.core.compaction.compact`) lays G''s out from the
neighbour and weight lists it merges the fine slots into, and G' is
backed by that view alone (:meth:`Graph.from_csr`), so it is never
compiled and builds no dict row unless one is read; and a worker
attaching a shared-memory segment (:mod:`repro.graphs.shm`) seeds a view
over the mapped buffers.

Determinism contract (what fixes every kernel decision):

* vertex ids follow the graph's insertion order, so RNG-driven vertex
  draws and id-order scans depend only on the order vertices were added;
* :attr:`CSRGraph.rank` maps each id to the position of its label in
  *sorted label order*, and the kernels break gain ties by comparing
  ranks.  When labels are not mutually comparable (mixed ``int`` and
  ``str``, say) the rank is insertion order instead; either way it
  depends on nothing but the label sequence.

The kernels (see :mod:`repro.kernels`) all read this view and no other
adjacency: even the weight of a candidate pair comes from the neighbour
rows they already walk, which never list a neighbour twice.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, lt, mul, ne, not_, sub

from .graph import Graph, Vertex

__all__ = [
    "CSRGraph",
    "cached_csr",
    "csr_cut_weight",
    "csr_flip",
    "csr_gains_cut",
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
    for plain-list mirrors (:meth:`neighbor_lists`, :meth:`weight_lists`,
    ...) which are materialized lazily and cached, because list indexing
    avoids the int re-boxing cost of ``array`` subscripts in hot loops.
    No row lists a neighbour twice, so the weight of a pair ``(a, b)`` is
    ``weight_lists()[a][neighbor_lists()[a].index(b)]`` when ``b`` is in
    ``a``'s row and 0 otherwise.

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
        "_index_of",
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

    def __init__(
        self,
        labels: list[Vertex],
        indptr,
        indices,
        edge_weight,
        heads,
        vertex_weight,
        *,
        num_edges: int,
        total_edge_weight: int,
        max_weighted_degree: int,
        unit_edge_weights: bool,
        index_of: dict[Vertex, int] | None = None,
        ranks: tuple[list[int], list[int]] | None = None,
        mirrors: dict[str, object] | None = None,
    ) -> None:
        """Fill every slot — the one constructor behind compile, contraction and attach.

        The buffers are ``array('q')`` or ``memoryview`` (a shared-memory
        attach passes its mapped windows).  ``index_of`` and ``ranks``
        default to what ``labels`` imply (``index_of`` is then built on
        first use); ``mirrors`` pre-fills the list-mirror cache and must
        equal what the lazy builders would make.
        """
        self.labels = labels
        self._index_of = index_of
        self.rank, self.by_rank = label_ranks(labels) if ranks is None else ranks
        self.indptr = indptr
        self.indices = indices
        self.edge_weight = edge_weight
        self.vertex_weight = vertex_weight
        self.heads = heads
        self.num_vertices = len(labels)
        self.num_edges = num_edges
        self.total_edge_weight = total_edge_weight
        self.total_vertex_weight = sum(vertex_weight)
        self.max_weighted_degree = max_weighted_degree
        self.unit_edge_weights = unit_edge_weights
        self.unit_vertex_weights = min(vertex_weight, default=1) == 1 == max(
            vertex_weight, default=1
        )
        self._lists: dict[str, object] = {} if mirrors is None else mirrors

    @property
    def index_of(self) -> dict[Vertex, int]:
        """``label -> id``, in id order."""
        if self._index_of is None:
            self._index_of = {v: i for i, v in enumerate(self.labels)}
        return self._index_of

    @classmethod
    def compile(cls, graph: Graph) -> "CSRGraph":
        """Compile ``graph`` (:func:`csr_view` caches the result on it)."""
        labels = list(graph.vertices())
        index_of: dict[Vertex, int] = {v: i for i, v in enumerate(labels)}
        rows = list(map(graph.adjacency, labels))
        degrees = list(map(len, rows))
        weights = list(chain.from_iterable(map(dict.values, rows)))
        unit_edges = weights.count(1) == len(weights)
        return cls._from_slot_lists(
            labels,
            degrees,
            list(map(index_of.__getitem__, chain.from_iterable(rows))),
            weights,
            list(map(graph.vertex_weight, labels)),
            num_edges=graph.num_edges,
            total_edge_weight=graph.total_edge_weight,
            max_weighted_degree=max(
                degrees if unit_edges else map(sum, map(dict.values, rows)), default=0
            ),
            unit_edge_weights=unit_edges,
            index_of=index_of,
        )

    @classmethod
    def _from_slot_lists(
        cls,
        labels: list[Vertex],
        degrees: list[int],
        tails: list[int],
        weights: list[int],
        vertex_weight: list[int],
        *,
        mirrors: dict[str, object] | None = None,
        **scalars,
    ) -> "CSRGraph":
        """The view of rows laid out as flat slot lists.

        Row ``i`` is the next ``degrees[i]`` entries of ``tails`` (neighbour
        ids) and ``weights``; the lists become the ``head_tail`` mirror.
        """
        heads = list(chain.from_iterable(map(repeat, range(len(labels)), degrees)))
        return cls(
            labels,
            array("q", accumulate(degrees, initial=0)),
            array("q", tails),
            array("q", weights),
            array("q", heads),
            array("q", vertex_weight),
            mirrors={**(mirrors or {}), "head_tail": (heads, tails, weights)},
            **scalars,
        )

    # -- lazy plain-list mirrors for the kernels ----------------------------------

    def _list(self, name: str, build) -> list:
        cached = self._lists.get(name)
        if cached is None:
            cached = build()
            self._lists[name] = cached
        return cached

    def _rows(self, flat: list[int]) -> list[list[int]]:
        """``flat`` (one entry per directed slot) sliced into per-vertex rows."""
        ptr = self.indptr
        return [flat[ptr[i] : ptr[i + 1]] for i in range(self.num_vertices)]

    def neighbor_lists(self) -> list[list[int]]:
        """Per-vertex neighbor-id lists, sliced from :meth:`head_tail_lists`."""
        return self._list("neighbors", lambda: self._rows(self.head_tail_lists()[1]))

    def weight_lists(self) -> list[list[int]]:
        """Per-vertex edge-weight lists, parallel to :meth:`neighbor_lists`."""
        return self._list("weights", lambda: self._rows(self.head_tail_lists()[2]))

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

    def forward_mask(self) -> bytes:
        """One flag per directed slot: 1 where ``head < tail``.

        The flagged slots, in slot order, are each undirected edge once,
        in the order of ``graph.edges()``; the matching and the
        contraction both walk them.  A byte per slot keeps the cache
        small: a list of the flagged slot ids would hold an int object
        per edge.
        """

        def build() -> bytes:
            heads, tails, _ = self.head_tail_lists()
            return bytes(map(lt, heads, tails))

        return self._list("forward", build)

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
            csr = CSRGraph.compile(graph)
            histogram("csr_compile_seconds").observe(monotonic_time() - began)
            counter("csr_compiles_total").inc()
        else:
            csr = CSRGraph.compile(graph)
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

    The shared gain-initialization of the KL, FM and SA kernels, at C
    level: one prefix sum over the per-slot ``weight * side`` products
    (just the sides on unit-weight graphs) gives row ``i``'s side-1 weight
    as ``csum[indptr[i + 1]] - csum[indptr[i]]``.
    """
    _, tails, weights = csr.head_tail_lists()
    slot_sides = map(sides.__getitem__, tails)
    csum = list(
        accumulate(
            slot_sides if csr.unit_edge_weights else map(mul, weights, slot_sides),
            initial=0,
        )
    )
    bounds = list(map(csum.__getitem__, csr.indptr))
    return [
        wdeg - 2 * s1 if side else 2 * s1 - wdeg
        for s1, wdeg, side in zip(
            map(sub, islice(bounds, 1, None), bounds), csr.weighted_degrees(), sides
        )
    ]


def csr_gains_cut(csr: CSRGraph, sides: list[int], gains: list[int]) -> int:
    """Cut weight of ``sides`` read off its move gains, in O(|V|).

    A side-0 vertex's edges to side 1 weigh ``(weighted degree + gain) / 2``;
    ``gains`` must be :func:`csr_move_gains` of ``sides``.
    """
    return sum(compress(map(add, csr.weighted_degrees(), gains), map(not_, sides))) // 2


def csr_flip(
    csr: CSRGraph, sides: list[int], gains: list[int], moved: Iterable[int]
) -> None:
    """Flip each id of ``moved`` in turn, keeping ``gains`` exact for ``sides``.

    ``gains`` must equal :func:`csr_move_gains` of ``sides`` on entry and
    does again on return: each flip moves its neighbours' gains by
    ``+2w`` (same side as the mover before it flips) or ``-2w`` (other
    side), and negates the mover's own.  KL and FM apply a pass's
    committed prefix with it instead of recounting every gain.
    """
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    for v in moved:
        side = sides[v]
        if wts is None:
            for u in nbrs[v]:
                gains[u] += 2 if sides[u] == side else -2
        else:
            for u, w in zip(nbrs[v], wts[v]):
                gains[u] += 2 * w if sides[u] == side else -2 * w
        gains[v] = -gains[v]
        sides[v] = 1 - side


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
