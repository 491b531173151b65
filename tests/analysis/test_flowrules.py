"""Fixture-pair tests for the flow-sensitive rules R011-R013 and R015.

Each rule gets a ``bad.py`` (every finding pinned by context) and a
``good.py`` (the sanctioned patterns, zero findings).  The repo-clean
smoke at the bottom is the acceptance criterion: the real tree carries
no unbaselined finding with every flow rule active.
"""

from __future__ import annotations


def split(findings):
    bad = [f for f in findings if f.path == "bad.py"]
    good = [f for f in findings if f.path == "good.py"]
    return bad, good


class TestR011LockDiscipline:
    def test_both_directions(self, lint_fixture):
        findings = lint_fixture("r011", rule="R011")
        bad, good = split(findings)
        assert good == []
        assert [f.context for f in bad] == ["Registry.reset", "Registry.add_many"]
        assert all("self._lock" in f.message for f in bad)

    def test_construction_and_seeded_helpers_exempt(self, lint_fixture):
        # good.py writes self._count in __init__ (construction), under
        # the lock, and inside a private helper only called while locked.
        findings = lint_fixture("r011", rule="R011")
        assert not any(f.path == "good.py" for f in findings)


class TestR012ForkSpawnState:
    def test_both_directions(self, lint_fixture):
        findings = lint_fixture("r012", rule="R012")
        bad, good = split(findings)
        assert good == []
        assert [f.context for f in bad] == ["worker"]
        assert "_SEEN" in bad[0].message

    def test_initializer_and_import_time_exemptions(self, lint_fixture):
        # good.py mutates _STATE (reset in the pool initializer) and
        # REGISTRY (only ever called at module level): both sanctioned.
        findings = lint_fixture("r012", rule="R012")
        assert not any(f.path == "good.py" for f in findings)


class TestR013ResourceLifetime:
    def test_both_directions(self, lint_fixture):
        findings = lint_fixture("r013", rule="R013")
        bad, good = split(findings)
        assert good == []
        assert {f.context for f in bad} == {"read_config", "probe", "loop_release"}
        by_ctx = {f.context: f.message for f in bad}
        # read_config releases on the normal path but leaks when read()
        # raises; probe never releases at all; loop_release releases only
        # inside a loop body, which may run no iteration.
        assert "raises" in by_ctx["read_config"]
        assert "function exit unreleased" in by_ctx["probe"]
        assert "function exit unreleased" in by_ctx["loop_release"]

    def test_handoff_transfers_the_obligation(self, lint_fixture):
        # Returning the handle or storing it into a caller-owned registry
        # transfers ownership (good.py open_for_caller / stash).
        findings = lint_fixture("r013", rule="R013")
        assert not any(f.path == "good.py" for f in findings)

    def test_shm_both_directions(self, lint_fixture):
        shm = [f for f in lint_fixture("r013", rule="R013") if f.path.startswith("shm_")]
        # Owner semantics: `with SharedGraphSegment.create(...)` unlinks
        # in __exit__, so context-managed creates (shm_ctx.py) and the
        # try/finally pairs (shm_good.py) carry no finding.
        assert [(f.path, f.context) for f in shm] == [
            ("shm_bad.py", "export"), ("shm_bad.py", "scratch"),
        ]
        assert all(f.rule == "R013" and "unlink" in f.message for f in shm)


class TestR015BlockingInWorkers:
    def test_both_directions(self, lint_fixture):
        findings = lint_fixture("r015", rule="R015")
        bad, good = split(findings)
        assert good == []
        assert {f.context for f in bad} == {"worker", "_handle", "drain"}
        messages = " / ".join(f.message for f in bad)
        assert "time.sleep" in messages
        assert "join" in messages
        assert "socket connect" in messages

    def test_worker_closure_stops_at_the_coordinator(self, lint_fixture):
        # coordinator_backoff sleeps but is not reachable from any
        # thread/pool entry point in the module.
        findings = lint_fixture("r015", rule="R015")
        assert not any(f.context == "coordinator_backoff" for f in findings)

    def test_severity_is_warning(self, lint_fixture):
        findings = lint_fixture("r015", rule="R015")
        assert all(f.severity == "warning" for f in findings)


class TestRepoIsCleanUnderFlowRules:
    def test_no_unbaselined_findings_with_flow_rules_active(self, real_tree_result):
        result = real_tree_result
        active = {r.id for r in result.rules}
        assert {"R011", "R012", "R013", "R015"} <= active
        assert result.findings == []
        assert result.stale == []
        assert result.baseline_problems == []
