"""Algorithm registry: names + params -> ``(graph, rng) -> result`` callables.

Jobs name their algorithm only by :class:`~repro.engine.job.AlgorithmSpec`
(plain name + scalar params), which crosses process boundaries and keys
the result cache; :func:`build_algorithm` resolves it here, inside the
process that runs the job, and is the one place a callable is made.
Builders are registered lazily
and import their heavy modules inside the function body, so importing the
engine stays cheap.

The built-in names mirror the CLI and the bench: ``kl``, ``sa``, ``ckl``,
``csa``, ``fm``, ``greedy``, ``multilevel`` and ``cycles``.  The ``sa``/``csa`` builders
take a ``size_factor`` param (the annealing temperature length
multiplier); omitted params fall back to the algorithm's own defaults, so
``AlgorithmSpec.make("sa")`` is exactly
``simulated_annealing(graph, rng=rng)``.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .job import AlgorithmSpec

__all__ = [
    "Algorithm",
    "AlgorithmInfo",
    "algorithm_info",
    "algorithm_names",
    "build_algorithm",
    "register_algorithm",
]

# An algorithm takes (graph, rng) and returns a result exposing `.cut`
# (and usually `.bisection`).
Algorithm = Callable[[Any, random.Random], Any]

_BUILDERS: dict[str, Callable[..., Algorithm]] = {}
_INFO: dict[str, "AlgorithmInfo"] = {}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata the verification harness needs to enumerate algorithms.

    ``max_degree`` restricts applicability — e.g. the exact path/cycle solver only
    accepts graphs of maximum degree 2.  ``stochastic`` is False for
    algorithms that ignore their ``rng`` entirely (their output is a
    function of the instance alone).
    """

    name: str
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
    max_degree: int | None = None,
    stochastic: bool = True,
) -> None:
    """Register ``builder`` (kwargs -> algorithm callable) under ``name``."""
    if not overwrite and name in _BUILDERS:
        raise ValueError(f"algorithm {name!r} is already registered")
    _BUILDERS[name] = builder
    _INFO[name] = AlgorithmInfo(name=name, max_degree=max_degree, stochastic=stochastic)


def algorithm_names() -> list[str]:
    """Sorted names of all registered algorithms."""
    return sorted(_BUILDERS)


def algorithm_info(name: str) -> AlgorithmInfo:
    """Metadata for a registered algorithm; raises ``KeyError`` when unknown."""
    if name not in _INFO:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {', '.join(algorithm_names())}"
        )
    return _INFO[name]


def build_algorithm(spec: AlgorithmSpec) -> Algorithm:
    """Resolve ``spec`` to an algorithm callable."""
    if spec.name not in _BUILDERS:
        raise KeyError(
            f"unknown algorithm {spec.name!r}; "
            f"registered: {', '.join(algorithm_names())}"
        )
    return _BUILDERS[spec.name](**spec.params_dict())


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


for _name, _builder, _max_degree, _stochastic in (
    ("kl", _build_kl, None, True),
    ("ckl", _build_ckl, None, True),
    ("sa", _build_sa, None, True),
    ("csa", _build_csa, None, True),
    ("fm", _build_fm, None, True),
    ("greedy", _build_greedy, None, True),
    ("multilevel", _build_multilevel, None, True),
    ("cycles", _build_cycles, 2, False),
):
    register_algorithm(_name, _builder, max_degree=_max_degree, stochastic=_stochastic)
del _name, _builder, _max_degree, _stochastic
