"""The paper's contribution: compaction, CKL/CSA, and recursive coalescing."""

from .. import _lazy_exports

_EXPORTS = {
    ".compaction": ("Compaction", "compact"),
    ".matching": (
        "heavy_edge_matching", "is_matching", "is_maximal_matching",
        "random_maximal_matching",
    ),
    ".multilevel": ("multilevel_bisection",),
    ".pipeline": (
        "CoarseOnlyResult", "CompactedResult", "MultilevelResult", "ckl",
        "coarse_only_bisection", "compacted_bisection", "csa",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "random_maximal_matching",
    "heavy_edge_matching",
    "is_matching",
    "is_maximal_matching",
    "compact",
    "Compaction",
    "compacted_bisection",
    "CompactedResult",
    "coarse_only_bisection",
    "CoarseOnlyResult",
    "ckl",
    "csa",
    "multilevel_bisection",
    "MultilevelResult",
]
