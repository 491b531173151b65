"""Analysis driver: scan, run rules, apply the baseline.

:func:`analyze` is the raw pass (all findings, no baseline);
:func:`run_analysis` is what the CLI and CI consume — it folds in the
baseline and answers "is the tree clean?" via :meth:`AnalysisResult.ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .baseline import Baseline, BaselineEntry, apply_baseline
from .config import AnalysisConfig
from .project import ProjectModel
from .rules import Finding, Rule
from .ruleset import default_rules

__all__ = [
    "AnalysisResult",
    "analyze",
    "default_baseline_path",
    "run_analysis",
    "valid_rule_ids",
]


def default_baseline_path() -> Path:
    """The checked-in baseline next to this package."""
    return Path(__file__).resolve().parent / "baseline.json"


@dataclass
class AnalysisResult:
    findings: list[Finding]  # unsuppressed
    suppressed: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    baseline_problems: list[tuple[BaselineEntry, str]] = field(default_factory=list)
    baseline: Baseline = field(default_factory=Baseline)
    rules: list[Rule] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def ok(self) -> bool:
        """Clean: nothing unsuppressed, no stale or unjustified baseline."""
        return not (self.findings or self.stale or self.baseline_problems)

    def suppressed_with_justifications(self) -> list[tuple[Finding, str]]:
        by_key = {e.key(): e.justification for e in self.baseline.entries}
        return [(f, by_key.get(f.key(), "")) for f in self.suppressed]


def valid_rule_ids() -> list[str]:
    """Every selectable rule id, sorted."""
    return sorted(r.id for r in default_rules())


def _selected_rules(config: AnalysisConfig) -> list[Rule]:
    """The config's rule selection; unknown ids raise ValueError."""
    rules = default_rules()
    if config.rules is None:
        return rules
    unknown = set(config.rules) - {r.id for r in rules}
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(valid_rule_ids())})"
        )
    return [r for r in rules if r.id in config.rules]


def analyze(config: AnalysisConfig) -> tuple[list[Finding], list[Rule], ProjectModel]:
    """Run the (scoped) rules over the tree; returns every finding."""
    project = ProjectModel.scan(config.root, config.package)
    rules = _selected_rules(config)
    findings: list[Finding] = []
    for module in project:
        for rule in rules:
            if config.in_scope(rule.id, module.relpath):
                findings.extend(rule.check(module, project))
    findings.sort()
    return findings, rules, project


def run_analysis(
    config: AnalysisConfig,
    baseline_path: Path | str | None = None,
) -> AnalysisResult:
    """The full pipeline: scan, lint, fold in the baseline."""
    findings, rules, project = analyze(config)
    baseline = Baseline.load(
        baseline_path if baseline_path is not None else default_baseline_path()
    )
    unsuppressed, suppressed, stale = apply_baseline(findings, baseline)
    if config.rules is not None:
        # A selected run never produces findings for unselected rules, so
        # their baseline entries would always look stale; that is not
        # evidence the entry rotted.
        stale = [e for e in stale if e.rule in config.rules]
    return AnalysisResult(
        findings=unsuppressed,
        suppressed=suppressed,
        stale=stale,
        baseline_problems=baseline.problems(),
        baseline=baseline,
        rules=rules,
        modules_scanned=len(project.modules),
    )
