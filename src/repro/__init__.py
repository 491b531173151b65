"""repro — graph bisection with Kernighan-Lin, simulated annealing, and compaction.

A from-scratch reproduction of Bui, Heigham, Jones & Leighton,
*Improving the Performance of the Kernighan-Lin and Simulated Annealing
Graph Bisection Algorithms* (DAC 1989).

Quickstart::

    from repro import gbreg, kernighan_lin, ckl

    sample = gbreg(2000, b=16, d=3, rng=1)   # planted bisection width 16
    plain = kernighan_lin(sample.graph, rng=2)
    compacted = ckl(sample.graph, rng=2)
    print(plain.cut, compacted.cut, sample.planted_width)

See :mod:`repro.graphs` for the three random graph models and the special
families, :mod:`repro.partition` for the algorithms, :mod:`repro.core` for
compaction/CKL/CSA/multilevel, and :mod:`repro.bench` for the paper's
experiment protocol.
"""


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's re-exports.

    ``exports`` maps a defining module (relative to ``package``) to the
    names the package re-exports from it.  A name's module is imported on
    first access and the value is cached in the package's globals, so
    later lookups (and ``from package import name``) cost a dict hit and
    a command imports only the modules it runs.
    """
    import importlib
    import sys

    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrate
    "Graph",
    "LaggedFibonacciRandom",
    # generators
    "gnp",
    "gnp_with_degree",
    "g2set",
    "g2set_with_degree",
    "gbreg",
    "random_regular_graph",
    "ladder_graph",
    "grid_graph",
    "binary_tree",
    "complete_binary_tree",
    "cycle_graph",
    "path_graph",
    # partitioning
    "Bisection",
    "random_bisection",
    "kernighan_lin",
    "simulated_annealing",
    "AnnealingSchedule",
    "BalanceCost",
    "fiduccia_mattheyses",
    "greedy_improvement",
    "exact_bisection",
    "exact_bisection_width",
    "bisect_paths_and_cycles",
    # compaction (the paper's contribution)
    "random_maximal_matching",
    "heavy_edge_matching",
    "compact",
    "Compaction",
    "compacted_bisection",
    "CompactedResult",
    "ckl",
    "csa",
    "multilevel_bisection",
    "MultilevelResult",
]

_EXPORTS = {
    ".core.compaction": ("Compaction", "compact"),
    ".core.matching": ("heavy_edge_matching", "random_maximal_matching"),
    ".core.multilevel": ("multilevel_bisection",),
    ".core.pipeline": (
        "CompactedResult", "MultilevelResult", "ckl", "compacted_bisection", "csa",
    ),
    ".graphs.graph": ("Graph",),
    ".graphs.generators.bregular": ("gbreg",),
    ".graphs.generators.erdos_renyi": ("gnp", "gnp_with_degree"),
    ".graphs.generators.planted": ("g2set", "g2set_with_degree"),
    ".graphs.generators.regular": ("random_regular_graph",),
    ".graphs.generators.special": (
        "binary_tree", "complete_binary_tree", "cycle_graph", "grid_graph",
        "ladder_graph", "path_graph",
    ),
    ".partition.annealing.cost": ("BalanceCost",),
    ".partition.annealing.sa": ("simulated_annealing",),
    ".partition.annealing.schedule": ("AnnealingSchedule",),
    ".partition.bisection": ("Bisection",),
    ".partition.dfs_cycle": ("bisect_paths_and_cycles",),
    ".partition.exact": ("exact_bisection", "exact_bisection_width"),
    ".partition.fm": ("fiduccia_mattheyses",),
    ".partition.greedy": ("greedy_improvement",),
    ".partition.kl": ("kernighan_lin",),
    ".partition.random_init": ("random_bisection",),
    ".rng": ("LaggedFibonacciRandom",),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
