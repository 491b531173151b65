"""Every registered algorithm honors every invariant on the whole corpus.

The matrix is registry x {gnp, gbreg3, tree, planted, cycle} x 3 seeds —
the acceptance floor of the verification subsystem (>= 4 algorithms,
>= 4 families, >= 3 seeds).  SA-family algorithms run with the same short
schedule the ``check`` command uses, so the sweep stays inside tier 1.
"""

from __future__ import annotations

import pytest

from repro.engine import AlgorithmSpec, algorithm_info, algorithm_names, build_algorithm
from repro.rng import LaggedFibonacciRandom
from repro.verify import DEFAULT_FAMILIES, check_result, make_instance

_FAST = {"sa", "csa"}
SEEDS = (0, 1, 2)


def _algorithm(name):
    params = {"size_factor": 1} if name in _FAST else {}
    return build_algorithm(AlgorithmSpec.make(name, **params))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
@pytest.mark.parametrize("name", algorithm_names())
def test_no_invariant_violations(name, family, seed):
    info = algorithm_info(name)
    instance = make_instance(family, 10, seed)
    if not info.supports(instance.graph):
        pytest.skip(f"{name} requires max degree <= {info.max_degree}")
    result = _algorithm(name)(instance.graph, LaggedFibonacciRandom(seed))
    violations = check_result(instance.graph, result)
    assert not violations, (
        f"{name} on {instance.name} seed={seed}: "
        + "; ".join(str(v) for v in violations)
    )


@pytest.mark.parametrize("name", algorithm_names())
def test_registry_info_is_complete(name):
    assert algorithm_info(name).name == name


def test_matrix_meets_acceptance_floor():
    """The sweep above covers >= 4 algorithms x >= 4 families x >= 3 seeds."""
    assert len(algorithm_names()) >= 4
    assert len(DEFAULT_FAMILIES) >= 4
    assert len(SEEDS) >= 3
