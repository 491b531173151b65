"""Algorithm registry: names + params -> ``(graph, rng) -> result`` callables.

The engine ships :class:`~repro.engine.job.AlgorithmSpec` values (plain
name + scalar params) across process boundaries and resolves them here,
inside the worker, into real callables.  Builders are registered lazily
and import their heavy modules inside the function body, so importing the
engine stays cheap.

The built-in names mirror the CLI and the bench: ``kl``, ``sa``, ``ckl``,
``csa``, ``fm``, ``greedy``, ``multilevel``, ``cycles`` for graphs and
``hfm``, ``chfm`` for hypergraph netlists.  The ``sa``/``csa`` builders
take a ``size_factor`` param (the annealing temperature length
multiplier); omitted params fall back to the algorithm's own defaults, so
``AlgorithmSpec.make("sa")`` is exactly
``simulated_annealing(graph, rng=rng)``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .job import Algorithm, AlgorithmSpec

__all__ = [
    "AlgorithmInfo",
    "algorithm_info",
    "algorithm_names",
    "build_algorithm",
    "register_algorithm",
]

_BUILDERS: dict[str, Callable[..., Algorithm]] = {}
_INFO: dict[str, "AlgorithmInfo"] = {}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata the verification harness needs to enumerate algorithms.

    ``domain`` says what the callable consumes: ``"graph"`` (a
    :class:`~repro.graphs.graph.Graph`) or ``"hypergraph"`` (a
    :class:`~repro.hypergraph.Hypergraph` netlist).  ``max_degree``
    restricts applicability — e.g. the exact path/cycle solver only
    accepts graphs of maximum degree 2.  ``stochastic`` is False for
    algorithms that ignore their ``rng`` entirely (their output is a
    function of the instance alone).
    """

    name: str
    domain: str = "graph"
    max_degree: int | None = None
    stochastic: bool = True

    def supports(self, graph) -> bool:
        """True when ``graph`` satisfies this algorithm's structural limits."""
        if self.max_degree is None:
            return True
        return all(graph.degree(v) <= self.max_degree for v in graph.vertices())


def register_algorithm(
    name: str,
    builder: Callable[..., Algorithm],
    overwrite: bool = False,
    *,
    domain: str = "graph",
    max_degree: int | None = None,
    stochastic: bool = True,
) -> None:
    """Register ``builder`` (kwargs -> algorithm callable) under ``name``."""
    if domain not in ("graph", "hypergraph"):
        raise ValueError(f"domain must be 'graph' or 'hypergraph', got {domain!r}")
    if not overwrite and name in _BUILDERS:
        raise ValueError(f"algorithm {name!r} is already registered")
    _BUILDERS[name] = builder
    _INFO[name] = AlgorithmInfo(
        name=name, domain=domain, max_degree=max_degree, stochastic=stochastic
    )


def algorithm_names(domain: str | None = None) -> list[str]:
    """Sorted names of all registered algorithms (optionally one ``domain``)."""
    if domain is None:
        return sorted(_BUILDERS)
    return sorted(name for name, info in _INFO.items() if info.domain == domain)


def algorithm_info(name: str) -> AlgorithmInfo:
    """Metadata for a registered algorithm; raises ``KeyError`` when unknown."""
    if name not in _INFO:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {', '.join(algorithm_names())}"
        )
    return _INFO[name]


def build_algorithm(spec: AlgorithmSpec | str, **params) -> Algorithm:
    """Resolve a spec (or bare name + kwargs) to an algorithm callable."""
    if isinstance(spec, AlgorithmSpec):
        if params:
            raise TypeError("pass params inside the AlgorithmSpec, not as kwargs")
        name, params = spec.name, spec.params_dict()
    else:
        name = spec
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {', '.join(algorithm_names())}"
        )
    return _BUILDERS[name](**params)


class _BisectionOnly:
    """Adapter giving bisection-returning solvers the common result shape."""

    __slots__ = ("bisection", "cut")

    def __init__(self, bisection):
        self.bisection = bisection
        self.cut = bisection.cut


# -- built-in builders -------------------------------------------------------------


def _build_kl() -> Algorithm:
    from ..partition.kl import kernighan_lin

    return lambda graph, rng: kernighan_lin(graph, rng=rng)


def _build_ckl() -> Algorithm:
    from ..core.pipeline import ckl

    return lambda graph, rng: ckl(graph, rng=rng)


def _sa_schedule(size_factor: int | None):
    if size_factor is None:
        return None
    from ..partition.annealing import AnnealingSchedule

    return AnnealingSchedule(size_factor=size_factor)


def _build_sa(size_factor: int | None = None) -> Algorithm:
    from ..partition.annealing.sa import simulated_annealing

    schedule = _sa_schedule(size_factor)
    return lambda graph, rng: simulated_annealing(graph, rng=rng, schedule=schedule)


def _build_csa(size_factor: int | None = None) -> Algorithm:
    from ..core.pipeline import csa

    schedule = _sa_schedule(size_factor)
    return lambda graph, rng: csa(graph, rng=rng, schedule=schedule)


def _build_fm() -> Algorithm:
    from ..partition.fm import fiduccia_mattheyses

    return lambda graph, rng: fiduccia_mattheyses(graph, rng=rng)


def _build_greedy() -> Algorithm:
    from ..partition.greedy import greedy_improvement

    return lambda graph, rng: greedy_improvement(graph, rng=rng)


def _build_multilevel() -> Algorithm:
    from ..core.multilevel import multilevel_bisection

    return lambda graph, rng: multilevel_bisection(graph, rng=rng)


def _build_cycles() -> Algorithm:
    from ..partition.dfs_cycle import bisect_paths_and_cycles

    return lambda graph, rng: _BisectionOnly(bisect_paths_and_cycles(graph))


def _build_hfm() -> Algorithm:
    from ..hypergraph.fm import hypergraph_fm

    return lambda hg, rng: hypergraph_fm(hg, rng=rng)


def _build_chfm() -> Algorithm:
    from ..hypergraph.compaction import compacted_hypergraph_fm

    return lambda hg, rng: compacted_hypergraph_fm(hg, rng=rng)


for _name, _builder, _domain, _max_degree, _stochastic in (
    ("kl", _build_kl, "graph", None, True),
    ("ckl", _build_ckl, "graph", None, True),
    ("sa", _build_sa, "graph", None, True),
    ("csa", _build_csa, "graph", None, True),
    ("fm", _build_fm, "graph", None, True),
    ("greedy", _build_greedy, "graph", None, True),
    ("multilevel", _build_multilevel, "graph", None, True),
    ("cycles", _build_cycles, "graph", 2, False),
    ("hfm", _build_hfm, "hypergraph", None, True),
    ("chfm", _build_chfm, "hypergraph", None, True),
):
    register_algorithm(
        _name,
        _builder,
        domain=_domain,
        max_degree=_max_degree,
        stochastic=_stochastic,
    )
del _name, _builder, _domain, _max_degree, _stochastic
