"""Execute the doctest examples embedded in public docstrings."""

from __future__ import annotations

import doctest

import pytest

import repro.graphs.graph
import repro.obs.ascii
import repro.partition.bisection

MODULES = [
    repro.graphs.graph,
    repro.partition.bisection,
    repro.obs.ascii,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, tests = doctest.testmod(module, verbose=False)
    assert tests > 0, f"{module.__name__} has no doctests (update MODULES)"
    assert failures == 0
