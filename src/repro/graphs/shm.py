"""Zero-copy shared-memory export of compiled CSR graphs.

A multi-worker batch over one large graph used to ship that graph to
every worker as a pickle (or rely on fork copy-on-write) and then let
*each worker* recompile its own CSR view.  This module packs the
already-compiled :class:`~repro.graphs.csr.CSRGraph` buffers into a
single :class:`multiprocessing.shared_memory.SharedMemory` segment so
the compile happens exactly once, in the parent, and workers map the
arrays read-only at zero copy cost.

Segment layout (all little-endian)::

    [ 8 bytes ] magic  b"RPROCSR1"
    [ 8 bytes ] length of the pickled metadata block
    [ ......  ] pickled metadata dict (labels, counters, flags)
    [ pad to 8-byte boundary ]
    [ int64[]  ] indptr        (n + 1 entries)
    [ int64[]  ] indices       (one per directed edge slot)
    [ int64[]  ] edge_weight   (parallel to indices)
    [ int64[]  ] heads         (parallel to indices)
    [ int64[]  ] vertex_weight (n entries)

Attaching rebuilds the :class:`~repro.graphs.graph.Graph` (the adjacency
dicts are reconstructed from the CSR rows — cheaper than unpickling them
and identical in insertion order, so every downstream decision matches
the parent bit for bit) and wires a :class:`CSRGraph` whose array slots
are ``memoryview.cast("q")`` windows straight into the segment.  The
rebuilt CSR is pre-seeded into ``graph._derived["csr"]`` so
:func:`~repro.graphs.csr.csr_view` in the worker finds it instead of
compiling — the ``csr_compiles_total`` counter never moves off-parent.

Lifecycle contract: the *creator* owns the segment and must call
:meth:`SharedGraphSegment.unlink` (``close()`` alone only drops this
process's mapping).  Attachers call :meth:`close` when done; a worker
that simply exits is also fine, the OS drops its mapping.  Attaching a
stale or foreign name raises :class:`ShmAttachError`, which callers use
to fall back to the plain pickle path.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory

from .csr import CSRGraph, label_ranks
from .graph import Graph

__all__ = [
    "SharedGraphSegment",
    "ShmAttachError",
    "ShmGraphRef",
    "shm_enabled",
]

_MAGIC = b"RPROCSR1"
_HEADER = struct.Struct("<8sQ")  # magic, metadata byte length


def shm_enabled() -> bool:
    """True unless the ``REPRO_SHM`` escape hatch disables shm sharding.

    Any non-empty value other than ``0`` keeps sharding on; ``0`` forces
    the engine back to the pickled-graph worker path.  Checked at batch
    time, not import time, so tests can flip it per run.
    """
    return os.environ.get("REPRO_SHM", "1") != "0"


class ShmAttachError(RuntimeError):
    """Attaching a named graph segment failed (missing, foreign, corrupt)."""


@dataclass(frozen=True)
class ShmGraphRef:
    """A by-name handle to a shared graph segment.

    This is what actually crosses the process boundary: a few bytes that
    pickle trivially under any start method, in place of the graph.
    """

    name: str


class SharedGraphSegment:
    """One graph's CSR buffers in a shared-memory segment.

    Create with :meth:`create` (parent side, owns the segment) or
    :meth:`attach` (worker side, by name).  :meth:`graph` returns the
    graph either way — the original object on the creator, a zero-copy
    reconstruction on attachers.
    """

    __slots__ = ("name", "size", "shm", "owner", "_graph", "_views")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self.shm = shm
        self.name = shm.name
        self.size = shm.size
        self.owner = owner
        self._graph: Graph | None = None
        self._views: list[memoryview] = []

    # -- creation -----------------------------------------------------------------

    @classmethod
    def create(cls, graph: Graph) -> "SharedGraphSegment":
        """Compile (or reuse) the graph's CSR view and export it.

        Raises whatever the pickle or shm layer raises — callers treat
        any failure as "this graph is not shareable" and fall back.
        """
        from .csr import csr_view  # compile-on-demand, counted once here

        csr = csr_view(graph)
        meta = pickle.dumps(
            {
                "labels": csr.labels,
                "num_edges": csr.num_edges,
                "total_edge_weight": csr.total_edge_weight,
                "total_vertex_weight": csr.total_vertex_weight,
                "max_weighted_degree": csr.max_weighted_degree,
                "unit_edge_weights": csr.unit_edge_weights,
                "unit_vertex_weights": csr.unit_vertex_weights,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        offset = _HEADER.size + len(meta)
        offset += (-offset) % 8  # arrays start 8-byte aligned
        arrays = (csr.indptr, csr.indices, csr.edge_weight, csr.heads,
                  csr.vertex_weight)
        total = offset + sum(8 * len(a) for a in arrays)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            buf = shm.buf
            _HEADER.pack_into(buf, 0, _MAGIC, len(meta))
            buf[_HEADER.size : _HEADER.size + len(meta)] = meta
            at = offset
            for a in arrays:
                raw = a.tobytes()
                buf[at : at + len(raw)] = raw
                at += len(raw)
        except Exception:
            shm.close()
            shm.unlink()
            raise
        segment = cls(shm, owner=True)
        segment._graph = graph
        return segment

    # -- attachment ---------------------------------------------------------------

    @classmethod
    def attach(cls, name: str) -> "SharedGraphSegment":
        """Map an existing segment by name; :class:`ShmAttachError` on failure."""
        # The creator owns cleanup: keep this process's resource tracker
        # out of it entirely (pre-3.13 SharedMemory has no track=False),
        # or a spawn worker's tracker would unlink the segment at worker
        # exit while the parent still serves it to siblings.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError, ValueError) as exc:
            raise ShmAttachError(f"segment {name!r}: {exc}") from exc
        finally:
            resource_tracker.register = original_register
        segment = cls(shm, owner=False)
        try:
            segment._validate()
        except ShmAttachError:
            segment.close()
            raise
        return segment

    def _validate(self) -> None:
        buf = self.shm.buf
        if len(buf) < _HEADER.size:
            raise ShmAttachError(f"segment {self.name!r}: truncated header")
        magic, meta_len = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ShmAttachError(f"segment {self.name!r}: not a graph segment")
        if _HEADER.size + meta_len > len(buf):
            raise ShmAttachError(f"segment {self.name!r}: truncated metadata")

    def graph(self) -> Graph:
        """The shared graph (reconstructed lazily and cached on attachers)."""
        if self._graph is None:
            try:
                self._graph = self._rebuild()
            except ShmAttachError:
                raise
            except Exception as exc:  # corrupt payload: surface as attach failure
                raise ShmAttachError(f"segment {self.name!r}: {exc}") from exc
        return self._graph

    def _rebuild(self) -> Graph:
        buf = self.shm.buf
        _magic, meta_len = _HEADER.unpack_from(buf, 0)
        meta = pickle.loads(bytes(buf[_HEADER.size : _HEADER.size + meta_len]))
        offset = _HEADER.size + meta_len
        offset += (-offset) % 8

        labels = meta["labels"]
        n = len(labels)

        def window(count: int) -> memoryview:
            nonlocal offset
            view = buf[offset : offset + 8 * count].cast("q")
            self._views.append(view)
            offset += 8 * count
            return view

        indptr = window(n + 1)
        m2 = indptr[n] if n else 0
        indices = window(m2)
        edge_weight = window(m2)
        heads = window(m2)
        vertex_weight = window(n)

        csr = CSRGraph.__new__(CSRGraph)
        csr.labels = labels
        csr.index_of = {v: i for i, v in enumerate(labels)}
        csr.rank, csr.by_rank = label_ranks(labels)
        csr.indptr = indptr
        csr.indices = indices
        csr.edge_weight = edge_weight
        csr.vertex_weight = vertex_weight
        csr.heads = heads
        csr.num_vertices = n
        csr.num_edges = meta["num_edges"]
        csr.total_edge_weight = meta["total_edge_weight"]
        csr.total_vertex_weight = meta["total_vertex_weight"]
        csr.max_weighted_degree = meta["max_weighted_degree"]
        csr.unit_edge_weights = meta["unit_edge_weights"]
        csr.unit_vertex_weights = meta["unit_vertex_weights"]
        csr._lists = {}

        # Rebuild the dict-of-dicts Graph around the view.  Rows follow CSR
        # order, which is the parent graph's insertion order, so iteration
        # order — and therefore every RNG-coupled decision — is preserved.
        graph = Graph()
        adj = graph._adj
        vw = graph._vertex_weight
        for i, v in enumerate(labels):
            adj[v] = {}
            vw[v] = vertex_weight[i]
        for i, v in enumerate(labels):
            row = adj[v]
            for slot in range(indptr[i], indptr[i + 1]):
                row[labels[indices[slot]]] = edge_weight[slot]
        graph._num_edges = meta["num_edges"]
        graph._total_edge_weight = meta["total_edge_weight"]
        graph._derived["csr"] = csr
        return graph

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (creator keeps the segment alive).

        Releases every exported view first; if user code still holds one
        (a cached numpy view, a kernel mid-flight) the unmap is deferred
        to process exit rather than raising.
        """
        graph = self._graph
        if graph is not None and not self.owner:
            csr = graph._derived.get("csr")
            if isinstance(csr, CSRGraph):
                csr._lists.clear()  # may cache numpy frombuffer views
        self._graph = None
        for view in self._views:
            view.release()
        self._views = []
        try:
            self.shm.close()
        except BufferError:
            pass  # an outstanding view pins the mapping until process exit

    def unlink(self) -> None:
        """Remove the segment from the system (creator side; idempotent)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedGraphSegment":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        if self.owner:
            self.unlink()
        return False

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        return f"SharedGraphSegment({self.name!r}, {self.size} bytes, {role})"
