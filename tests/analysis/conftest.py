"""Shared helpers for the static-analysis tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, analyze, default_config, run_analysis

FIXTURES = Path(__file__).parent / "fixtures"


def run_lint(
    subdir: str,
    rule: str | None = None,
    scopes: dict | None = None,
    allow_zones: dict | None = None,
):
    """Run the linter over one fixture tree; returns the findings list."""
    config = AnalysisConfig(
        root=FIXTURES / subdir,
        package="fx",
        scopes=scopes or {},
        allow_zones=allow_zones or {},
        rules=(rule,) if rule else None,
    )
    findings, _rules, _project = analyze(config)
    return findings


@pytest.fixture
def lint_fixture():
    """The fixture-tree lint runner as a callable."""
    return run_lint


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def real_tree_result():
    """One baseline-folded scan of the shipped source tree, shared by every
    real-tree test (a scan takes seconds; the tree does not change mid-run)."""
    return run_analysis(default_config())
