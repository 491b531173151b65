"""SharedGraphSegment: round-trip fidelity and lifecycle hygiene.

The fidelity half checks that an attached graph is *indistinguishable*
from the original — same fingerprint, same insertion order (the property
every RNG-coupled decision hangs off), same CSR buffers, and a
pre-seeded CSR so the attacher never recompiles.  The lifecycle half
checks the unlink discipline: owners remove the segment, attach failures
are typed (so the engine can fall back to pickles), and close/unlink are
idempotent.
"""

from __future__ import annotations

import pickle
import struct
from multiprocessing import shared_memory

import pytest

from repro.graphs.csr import csr_view
from repro.graphs.generators import gbreg
from repro.graphs.graph import Graph, graph_fingerprint
from repro.graphs.shm import SharedGraphSegment, ShmAttachError
from repro.rng import LaggedFibonacciRandom


@pytest.fixture
def graph():
    return gbreg(40, 4, 3, LaggedFibonacciRandom(7)).graph


def _attach_copy(graph):
    """Export ``graph``, attach it back, and hand both to the caller."""
    owner = SharedGraphSegment.create(graph)
    attached = SharedGraphSegment.attach(owner.name)
    return owner, attached


class TestRoundTrip:
    def test_graph_is_bitwise_equivalent(self, graph):
        owner, attached = _attach_copy(graph)
        try:
            twin = attached.graph()
            assert graph_fingerprint(twin) == graph_fingerprint(graph)
            # Insertion order is the determinism-critical invariant.
            assert list(twin.vertices()) == list(graph.vertices())
            for v in graph.vertices():
                assert list(twin.neighbors(v)) == list(graph.neighbors(v))
            assert twin.num_edges == graph.num_edges
            assert twin.total_edge_weight == graph.total_edge_weight
        finally:
            attached.close()
            owner.close()
            owner.unlink()

    def test_csr_views_share_buffers_not_copies(self, graph):
        original = csr_view(graph)
        owner, attached = _attach_copy(graph)
        try:
            twin = attached.graph()
            # The rebuilt CSR is pre-seeded: csr_view must find it, not
            # compile a second one.
            csr = twin._derived["csr"]
            assert csr_view(twin) is csr
            for name in ("indptr", "indices", "edge_weight", "heads",
                         "vertex_weight"):
                assert list(getattr(csr, name)) == list(getattr(original, name))
            assert csr.rank == original.rank
            assert csr.by_rank == original.by_rank
            assert csr.labels == original.labels
            assert csr.unit_edge_weights == original.unit_edge_weights
        finally:
            attached.close()
            owner.close()
            owner.unlink()

    def test_mixed_labels_attach_with_equal_ranks(self, graph):
        # Mixed int/str labels do not sort; the attacher must still derive
        # the owner's (insertion-order) ranks from the label list alone.
        label = {v: v if v % 3 else f"s{v}" for v in graph.vertices()}
        mixed = Graph.from_edges((label[u], label[v]) for u, v, _ in graph.edges())
        original = csr_view(mixed)
        owner, attached = _attach_copy(mixed)
        try:
            csr = attached.graph()._derived["csr"]
            assert csr.labels == original.labels
            assert csr.rank == original.rank == list(range(csr.num_vertices))
            assert csr.by_rank == original.by_rank
        finally:
            attached.close()
            owner.close()
            owner.unlink()

    def test_weighted_graph_attaches_with_every_scalar(self, graph):
        # Vertex weights and merged edge weights: the attacher derives the
        # vertex-weight totals from the buffers instead of the metadata.
        from repro.core.compaction import compact
        from repro.core.matching import random_maximal_matching

        coarse = compact(graph, random_maximal_matching(graph, 3)).coarse
        original = csr_view(coarse)
        assert not original.unit_edge_weights
        assert not original.unit_vertex_weights
        owner, attached = _attach_copy(coarse)
        try:
            csr = attached.graph()._derived["csr"]
            for name in ("num_vertices", "num_edges", "total_edge_weight",
                         "total_vertex_weight", "max_weighted_degree",
                         "unit_edge_weights", "unit_vertex_weights", "index_of"):
                assert getattr(csr, name) == getattr(original, name), name
            assert csr.weighted_degrees() == original.weighted_degrees()
            assert csr.weight_classes() == original.weight_classes()
        finally:
            attached.close()
            owner.close()
            owner.unlink()

    def test_owner_graph_is_the_original_object(self, graph):
        with SharedGraphSegment.create(graph) as owner:
            assert owner.graph() is graph


class TestAttachFailures:
    def test_missing_name_raises_typed_error(self):
        with pytest.raises(ShmAttachError, match="psm_repro_no_such"):
            SharedGraphSegment.attach("psm_repro_no_such")

    def test_foreign_segment_rejected(self):
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            shm.buf[:8] = b"NOTAGRPH"
            with pytest.raises(ShmAttachError, match="not a graph segment"):
                SharedGraphSegment.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_truncated_metadata_rejected(self):
        shm = shared_memory.SharedMemory(create=True, size=32)
        try:
            struct.pack_into("<8sQ", shm.buf, 0, b"RPROCSR1", 1 << 20)
            with pytest.raises(ShmAttachError, match="truncated metadata"):
                SharedGraphSegment.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_corrupt_payload_surfaces_as_attach_error(self):
        garbage = b"\x00" * 16
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            struct.pack_into("<8sQ", shm.buf, 0, b"RPROCSR1", len(garbage))
            shm.buf[16 : 16 + len(garbage)] = garbage
            attached = SharedGraphSegment.attach(shm.name)  # header is fine
            try:
                with pytest.raises(ShmAttachError, match=attached.name):
                    attached.graph()
            finally:
                attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_unpicklable_labels_fail_create_cleanly(self):
        graph = Graph()
        graph.add_edge(lambda: 0, "b")  # lambdas do not pickle
        before = _segment_names()
        with pytest.raises(Exception):
            SharedGraphSegment.create(graph)
        assert _segment_names() == before  # the half-built segment is gone


def _segment_names() -> set[str]:
    import os

    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


class TestLifecycle:
    def test_context_manager_owner_unlinks(self, graph):
        with SharedGraphSegment.create(graph) as owner:
            name = owner.name
            SharedGraphSegment.attach(name).close()  # alive while held
        with pytest.raises(ShmAttachError):
            SharedGraphSegment.attach(name)

    def test_attacher_context_exit_leaves_segment_alive(self, graph):
        owner = SharedGraphSegment.create(graph)
        try:
            with SharedGraphSegment.attach(owner.name) as attached:
                attached.graph()
            SharedGraphSegment.attach(owner.name).close()  # still there
        finally:
            owner.close()
            owner.unlink()

    def test_close_and_unlink_are_idempotent(self, graph):
        owner, attached = _attach_copy(graph)
        attached.graph()
        attached.close()
        attached.close()
        owner.close()
        owner.unlink()
        owner.unlink()
        assert owner.name not in _segment_names()

