"""Lazy package re-exports: each table names the module that defines a name.

The packages below load a re-exported name from its defining module on
first access (``repro._lazy_exports``).  A typo in a table would only
show when someone touches that one name, so every name is touched here.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.graphs",
    "repro.graphs.generators",
    "repro.obs",
    "repro.partition",
    "repro.partition.annealing",
]


def _origin(package) -> dict[str, str]:
    return {name: module for module, names in package._EXPORTS.items() for name in names}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    origin = _origin(package)
    assert set(origin) <= set(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in vars(package)  # cached after first access
        if export not in origin:  # defined by the package itself
            continue
        defining = importlib.import_module(origin[export], name)
        assert value is vars(defining)[export]
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == defining.__name__


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_all(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert {export: namespace[export] for export in package.__all__} == {
        export: getattr(package, export) for export in package.__all__
    }


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_lists_the_table_and_unknown_names_raise(name):
    package = importlib.import_module(name)
    assert set(_origin(package)) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export  # noqa: B018
