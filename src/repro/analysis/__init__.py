"""Zero-dependency static analysis: determinism & invariant linting.

The repo's headline guarantees — seed-determinism, decision-identical
kernel backends, zero hot-loop observability cost — are enforced
dynamically by the test suites.  This package enforces them *statically*:
a pure-:mod:`ast` pass over ``src/repro`` with a project model
(:mod:`~repro.analysis.project`), a rule engine with per-rule scopes and
allow-zones (:mod:`~repro.analysis.config`,
:mod:`~repro.analysis.rules`), and a ruleset (R001-R005, R007,
R010-R013, R015) encoding the contracts the violating code would
otherwise only break at run time: syntactic determinism/invariant rules
in :mod:`~repro.analysis.ruleset`,
flow-sensitive concurrency and resource-lifetime rules in
:mod:`~repro.analysis.flowrules` on top of the per-function CFG builder
(:mod:`~repro.analysis.cfg`) and the forward dataflow engine
(:mod:`~repro.analysis.dataflow`).

Findings render as text, JSON, or SARIF 2.1.0 (:mod:`~repro.analysis.sarif`);
accepted legacy findings live in the checked-in ``baseline.json`` with
mandatory justifications (:mod:`~repro.analysis.baseline`).  Every run
is one uncached pass over the tree, and the linter only reports: it never
rewrites source.  The ``repro-bisect lint`` command and the CI ``lint``
job are the consumers.
"""

from .baseline import Baseline, BaselineEntry, apply_baseline, update_baseline
from .config import AnalysisConfig, default_config
from .project import ModuleInfo, ProjectModel
from .report import render_json, render_text
from .rules import Finding, Rule, Severity
from .ruleset import ALL_RULES, default_rules
from .runner import (
    AnalysisResult,
    analyze,
    default_baseline_path,
    run_analysis,
    valid_rule_ids,
)
from .sarif import SARIF_SCHEMA_URI, SARIF_VERSION, to_sarif

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisResult",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleInfo",
    "ProjectModel",
    "Rule",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "Severity",
    "analyze",
    "apply_baseline",
    "default_baseline_path",
    "default_config",
    "default_rules",
    "render_json",
    "render_text",
    "run_analysis",
    "to_sarif",
    "update_baseline",
    "valid_rule_ids",
]
