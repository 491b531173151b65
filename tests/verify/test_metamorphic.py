"""Metamorphic relation sweeps — marked ``property``, run by the CI verify job.

Wider and slower than the tier-1 probes: every relation over every corpus
family, plus the engine relations (jobs/cache equivalence) that spawn
process pools.  ``pytest -m property`` selects exactly this file's sweeps.
"""

from __future__ import annotations

import pytest

from repro.engine import AlgorithmSpec, algorithm_info, algorithm_names, build_algorithm
from repro.verify import (
    DEFAULT_FAMILIES,
    check_cache_equivalence,
    check_determinism,
    check_edge_permutation_invariance,
    check_jobs_equivalence,
    check_relabeling_invariance,
    make_instance,
)

pytestmark = pytest.mark.property

_FAST = {"sa", "csa"}


def _spec(name):
    params = {"size_factor": 1} if name in _FAST else {}
    return AlgorithmSpec.make(name, **params)


def _algorithm(name):
    return build_algorithm(_spec(name))


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
@pytest.mark.parametrize("name", algorithm_names())
def test_seed_determinism(name, family, seed):
    instance = make_instance(family, 12, seed)
    if not algorithm_info(name).supports(instance.graph):
        pytest.skip("unsupported degree")
    violations = check_determinism(_algorithm(name), instance.graph, seed)
    assert not violations, "; ".join(str(v) for v in violations)


@pytest.mark.parametrize("permutation_seed", (0, 1, 2))
@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
@pytest.mark.parametrize("name", algorithm_names())
def test_relabeling_invariance(name, family, permutation_seed):
    instance = make_instance(family, 12, 0)
    if not algorithm_info(name).supports(instance.graph):
        pytest.skip("unsupported degree")
    violations = check_relabeling_invariance(
        _algorithm(name), instance.graph, seed=0, permutation_seed=permutation_seed
    )
    assert not violations, "; ".join(str(v) for v in violations)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
def test_edge_permutation_invariance(family, seed):
    instance = make_instance(family, 16, seed)
    violations = check_edge_permutation_invariance(instance.graph, seed=seed)
    assert not violations, "; ".join(str(v) for v in violations)


@pytest.mark.parametrize("name", ("kl", "ckl", "sa"))
def test_jobs_equivalence(name):
    """jobs=1 and jobs=2 return identical results for identical job lists."""
    instance = make_instance("gnp", 16, 0)
    violations = check_jobs_equivalence(
        _spec(name), instance.graph, seeds=(0, 1, 2), jobs=2
    )
    assert not violations, "; ".join(str(v) for v in violations)


@pytest.mark.parametrize("name", ("kl", "ckl"))
def test_cache_equivalence(name, tmp_path):
    instance = make_instance("gbreg3", 16, 1)
    violations = check_cache_equivalence(
        _spec(name), instance.graph, seed=1, cache_dir=str(tmp_path / "cache")
    )
    assert not violations, "; ".join(str(v) for v in violations)
