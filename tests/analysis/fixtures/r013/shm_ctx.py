"""R013 shm pass direction: context-manager ownership unlinks in __exit__."""

from repro.graphs.shm import SharedGraphSegment


def export_scoped(graph):
    with SharedGraphSegment.create(graph) as segment:
        return segment.graph()
