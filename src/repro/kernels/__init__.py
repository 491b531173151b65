"""Batch gain/flip kernel backends over the CSR arrays.

The partition heuristics (:mod:`repro.partition.kl`,
:mod:`repro.partition.fm`, :mod:`repro.partition.annealing.sa`) run their
inner loops over the flat ``indptr`` / ``indices`` / ``edge_weight``
buffers of the cached :class:`~repro.graphs.csr.CSRGraph`, through one of
two interchangeable *kernel backends*:

``array``
    Pure-stdlib kernels (plain-list mirrors in the hot loops,
    ``array('q')`` canonical storage).  The default.
``numpy``
    The array kernels with numpy used for the *batch* stages — gain
    initialization via prefix sums and cut/side-weight recounts.  Falls
    back to ``array`` when numpy is not installed; never changes a
    decision.  numpy is imported only when this backend is asked for.

Both backends produce identical cuts, assignments, pass/temperature
traces, and RNG stream consumption, bit for bit.  Correctness is
anchored by the committed goldens (``tests/core/ckl_goldens.json``) and
the oracles of :mod:`repro.verify`, not by a second implementation.  The
switch is the ``REPRO_KERNEL`` environment variable,
checked at kernel entry, so tests flip it per call.
"""

from __future__ import annotations

import functools
import os

__all__ = [
    "BACKENDS",
    "KERNEL_ENV",
    "kernel_backend",
    "numpy_available",
]

KERNEL_ENV = "REPRO_KERNEL"
BACKENDS = ("array", "numpy")


@functools.cache
def numpy_available() -> bool:
    """True when the optional numpy backend can run (imports numpy once)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def kernel_backend() -> str:
    """The active kernel backend name (``array`` | ``numpy``).

    ``REPRO_KERNEL=numpy`` silently degrades to ``array`` when numpy is
    missing, so a config written on one host stays valid on another.
    """
    raw = os.environ.get(KERNEL_ENV, "array").strip().lower() or "array"
    if raw not in BACKENDS:
        raise ValueError(
            f"{KERNEL_ENV} must be one of {BACKENDS}, got {raw!r}"
        )
    if raw == "numpy" and not numpy_available():
        return "array"
    return raw
