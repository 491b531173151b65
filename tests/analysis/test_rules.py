"""Every rule, both directions, against the fixture packages."""

from __future__ import annotations

import pytest

from repro.analysis import ALL_RULES, Severity, default_rules

def split(findings):
    bad = [f for f in findings if f.path == "bad.py"]
    good = [f for f in findings if f.path == "good.py"]
    return bad, good


class TestR001SharedRandom:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r001", rule="R001"))
        assert good == []
        # The from-import, the attribute call, and the aliased bare call.
        assert len(bad) == 3
        assert {f.context for f in bad} == {"", "draw", "scramble"}

    def test_allow_zone_carves_out_rng(self, lint_fixture):
        findings = lint_fixture(
            "zones", rule="R001", allow_zones={"R001": ("rng.py",)}
        )
        assert [f.path for f in findings] == ["kernel.py"]


class TestR002WallClock:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r002", rule="R002"))
        assert good == []
        assert len(bad) == 3
        assert {f.context for f in bad} == {"stamp", "duration", "label"}
        assert all("repro.obs.clock" in f.message for f in bad)


class TestR003DerivedInvalidation:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r003", rule="R003"))
        assert good == []
        assert {f.context for f in bad} == {"Store.put", "Store.drop"}

    def test_transitive_invalidation_accepted(self, lint_fixture):
        # good.py's `replace` reaches `_derived.clear()` only through two
        # levels of self-calls; the call-graph closure must see that.
        findings = lint_fixture("r003", rule="R003")
        assert not any(f.context == "Store.replace" for f in findings)


class TestR004ObsInLoops:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r004", rule="R004"))
        assert good == []
        assert len(bad) == 3
        contexts = sorted(f.context for f in bad)
        assert contexts == ["anneal", "kernel", "kernel"]


class TestR005SetIteration:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r005", rule="R005"))
        assert good == []
        assert len(bad) == 3
        assert {f.context for f in bad} == {"pick_class", "scan", "collect"}


class TestR007SwallowedExceptions:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r007", rule="R007"))
        assert good == []
        assert len(bad) == 2
        assert {f.context for f in bad} == {"run", "cleanup"}


class TestR010MetricNaming:
    def test_both_directions(self, lint_fixture):
        bad, good = split(lint_fixture("r010", rule="R010"))
        assert good == []
        assert len(bad) == 7
        messages = " | ".join(f.message for f in bad)
        assert "'jobsDone'" in messages  # not snake_case
        assert "'moves_count'" in messages  # counter without _total
        assert "'queue_depth_total'" in messages  # gauge with _total
        assert "'job_latency'" in messages  # histogram without unit
        assert "'Engine.Batch'" in messages  # span casing
        assert "'retries'" in messages  # registry-method form
        assert "inside a loop" in messages  # in-loop bucket literal

    def test_real_tree_is_clean(self, real_tree_result):
        # Baselined findings count too: R010 has no accepted exceptions.
        found = real_tree_result.findings + real_tree_result.suppressed
        assert [f for f in found if f.rule == "R010"] == []


class TestRuleRegistry:
    def test_ids_are_unique_and_sequential(self, lint_fixture):
        # Retired ids (R006, R008, R009, R014, R016) have no rule class.
        ids = [cls.id for cls in ALL_RULES]
        assert ids == [
            "R001", "R002", "R003", "R004", "R005", "R007",
            "R010", "R011", "R012", "R013", "R015",
        ]

    def test_valid_ids_are_the_sorted_rule_ids(self, lint_fixture):
        from repro.analysis import valid_rule_ids

        assert valid_rule_ids() == sorted(cls.id for cls in ALL_RULES)
        assert not {"R006", "R008", "R009", "R014", "R016"} & set(valid_rule_ids())

    def test_every_rule_has_metadata(self, lint_fixture):
        for rule in default_rules():
            assert rule.name and rule.description
            assert rule.severity in Severity.ORDER

    def test_unknown_rule_id_rejected(self, lint_fixture):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_fixture("r001", rule="R999")
