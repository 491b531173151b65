"""Batch gain/flip kernels over the CSR arrays, behind a backend switch.

The partition heuristics (:mod:`repro.partition.kl`,
:mod:`repro.partition.fm`, :mod:`repro.partition.annealing.sa`) run their
inner loops through one of three interchangeable *kernel backends*:

``dict``
    The label-keyed reference kernels that live with each heuristic.
    Slowest, simplest, and the determinism anchor everything else is
    checked against.
``array``
    Pure-stdlib kernels over the flat ``indptr`` / ``indices`` /
    ``edge_weight`` buffers of the cached
    :class:`~repro.graphs.csr.CSRGraph` (plain-list mirrors in the hot
    loops, ``array('q')`` canonical storage).  The default.
``numpy``
    The array kernels with numpy used for the *batch* stages — gain
    initialization via ``np.add.reduceat``, cut/side-weight recounts,
    and bulk lagged-Fibonacci stream generation.  Falls back to
    ``array`` when numpy is not installed; never changes a decision.

Every backend is held to the same contract the CSR equivalence matrix
enforces: identical cuts, assignments, pass/temperature traces, and RNG
stream consumption, bit for bit.  The switch is the ``REPRO_KERNEL``
environment variable (checked at kernel entry, so tests flip it per
call), and it is the only one: every label type runs on the CSR
kernels unless ``REPRO_KERNEL=dict`` asks for the reference kernels.
SA's ``swap`` neighbourhood has no CSR kernel and always runs on dict.
"""

from __future__ import annotations

import os

__all__ = [
    "BACKENDS",
    "KERNEL_ENV",
    "kernel_backend",
    "numpy_available",
]

KERNEL_ENV = "REPRO_KERNEL"
BACKENDS = ("dict", "array", "numpy")

try:  # an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


def numpy_available() -> bool:
    """True when the optional numpy backend can actually run."""
    return _np is not None


def kernel_backend() -> str:
    """The active kernel backend name (``dict`` | ``array`` | ``numpy``).

    ``REPRO_KERNEL=numpy`` silently degrades to ``array`` when numpy is
    missing, so a config written on one host stays valid on another.
    """
    raw = os.environ.get(KERNEL_ENV, "array").strip().lower() or "array"
    if raw not in BACKENDS:
        raise ValueError(
            f"{KERNEL_ENV} must be one of {BACKENDS}, got {raw!r}"
        )
    if raw == "numpy" and _np is None:
        return "array"
    return raw
