"""R013 shm pass direction: creates paired with unlinks; attach is free."""

from multiprocessing import shared_memory

from repro.graphs.shm import SharedGraphSegment


def export_and_release(graph):
    segment = SharedGraphSegment.create(graph)
    try:
        return segment.name
    finally:
        segment.close()
        segment.unlink()


def scratch(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    try:
        shm.buf[: len(payload)] = payload
    finally:
        shm.close()
        shm.unlink()


def attach_only(name):
    # Attaching to someone else's segment carries no unlink duty.
    return shared_memory.SharedMemory(name=name)
