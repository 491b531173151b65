"""R013 shm fail direction: segments created, never unlinked anywhere."""

from multiprocessing import shared_memory

from repro.graphs.shm import SharedGraphSegment


def export(graph):
    segment = SharedGraphSegment.create(graph)  # finding
    return segment.name


def scratch(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))  # finding
    shm.buf[: len(payload)] = payload
    return shm.name
