"""Smoke tests: every example script runs to completion.

Examples are documentation; a refactor that breaks one should fail CI.
Each script runs in a subprocess with a generous timeout and must exit 0
and print its headline marker.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "repro quickstart",
    "vlsi_placement.py": "min-cut placement",
    "model_study.py": "random graph models",
    "annealing_tuning.py": "SA schedule tuning",
    "compaction_anatomy.py": "compaction, step by step",
}


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_MARKERS), (
        "examples/ and EXPECTED_MARKERS disagree — update the smoke tests"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert EXPECTED_MARKERS[script] in result.stdout
    assert not result.stderr.strip()
