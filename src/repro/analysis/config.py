"""Analysis configuration: which files each rule scans or skips.

Every rule sees every module by default.  Two per-rule path maps narrow
that:

* **scopes** restrict a rule to part of the tree (R015's blocking-call
  check only makes sense where pool workers run, so it scans ``engine/``
  and ``kernels/`` and nothing else);
* **allow zones** carve sanctioned exceptions out of a rule's scope
  (R002 bans wall-clock reads everywhere *except* ``obs/``, the clock
  choke point).

Both maps use paths relative to the scanned package root, ``/``-separated
on every platform.  An entry ending in ``/`` matches the whole subtree;
an entry containing a glob character is an :mod:`fnmatch` pattern; any
other entry matches one file exactly.

Tests point ``root`` at fixture packages and swap in their own maps, so
rule behavior is exercised without touching the real tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Mapping

__all__ = ["AnalysisConfig", "DEFAULT_ALLOW_ZONES", "DEFAULT_SCOPES", "default_config"]


#: Sanctioned exceptions per rule (paths relative to the package root).
DEFAULT_ALLOW_ZONES: Mapping[str, tuple[str, ...]] = {
    # The observability layer owns the clock (obs/clock.py is the choke
    # point).
    "R002": ("obs/",),
}

#: Rules that only apply to part of the tree (empty/absent = whole tree).
DEFAULT_SCOPES: Mapping[str, tuple[str, ...]] = {
    # The "flush local ints once per run" contract guards the hot kernels
    # and the pass drivers around them.
    "R004": (
        "kernels/",
        "partition/kl.py",
        "partition/fm.py",
        "partition/annealing/sa.py",
        "graphs/csr.py",
    ),
    # Seeded decision paths: partitioners, graph generators, and the
    # ensemble study sweeps (whose seed protocol is a reproducibility
    # contract — a stray unseeded draw would silently fork local and
    # remote aggregates), plus the graph class, whose subgraph vertex
    # order feeds recursive splits.
    "R005": ("partition/", "graphs/generators/", "study/", "graphs/graph.py"),
    # The robustness boundaries: the execution engine and the HTTP
    # service in front of it (a swallowed exception in a request handler
    # turns into a silent hang for the client).
    "R007": ("engine/", "service/"),
    # Lock discipline matters where objects are shared across threads:
    # the HTTP service, the engine coordinator, and the obs registries.
    "R011": ("service/", "engine/", "obs/"),
    # Worker hot paths live in the engine and the compute kernels.
    "R015": ("engine/", "kernels/"),
}


def _matches(relpath: str, pattern: str) -> bool:
    if pattern.endswith("/"):
        return relpath.startswith(pattern)
    if any(ch in pattern for ch in "*?["):
        return fnmatch(relpath, pattern)
    return relpath == pattern


@dataclass(frozen=True)
class AnalysisConfig:
    """Where to scan and how rule scopes/allow-zones map onto the tree."""

    #: Directory containing the package to scan (e.g. ``src/repro``).
    root: Path
    #: Dotted name of the scanned package (for module names in findings).
    package: str = "repro"
    scopes: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    allow_zones: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW_ZONES)
    )
    #: Restrict the run to these rule ids (``None`` = every registered rule).
    rules: tuple[str, ...] | None = None

    def in_scope(self, rule_id: str, relpath: str) -> bool:
        """True when ``relpath`` is inside the rule's scope and no allow-zone."""
        scope = self.scopes.get(rule_id)
        if scope and not any(_matches(relpath, p) for p in scope):
            return False
        return not any(
            _matches(relpath, p) for p in self.allow_zones.get(rule_id, ())
        )


def default_config(root: Path | str | None = None) -> AnalysisConfig:
    """The repo's own configuration, rooted at the installed ``repro`` package."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    return AnalysisConfig(root=Path(root))
