"""Inner loops of the partition heuristics over the CSR arrays.

The partition heuristics (:mod:`repro.partition.kl`,
:mod:`repro.partition.fm`, :mod:`repro.partition.annealing.sa`) run their
inner loops over the flat ``indptr`` / ``indices`` / ``edge_weight``
buffers of the cached :class:`~repro.graphs.csr.CSRGraph`, in pure
stdlib Python: plain-list mirrors in the hot loops, ``array('q')``
canonical storage.  There is one implementation per kernel:
:mod:`repro.kernels.kl` (KL pair selection), :mod:`repro.kernels.fm`
(the FM sweep) and :mod:`repro.kernels.sa` (the Metropolis walks, which
draw from the block random stream of :mod:`repro.rng`).  The batch stages
they share — gain initialization, incremental flips and cut / side-weight
recounts — live next to the CSR view in :mod:`repro.graphs.csr`.

Correctness is anchored by the committed goldens
(``tests/core/ckl_goldens.json``) and the oracles of :mod:`repro.verify`,
not by a second implementation.
"""
