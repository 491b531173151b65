"""ServiceState: graph store, tenancy/quotas, job table (no HTTP)."""

from __future__ import annotations

import pytest

from repro.engine import JobRunner, ResultCache
from repro.graphs.io import graph_to_string
from repro.graphs.generators import gbreg
from repro.rng import LaggedFibonacciRandom, derive_seed
from repro.service import (
    AuthError,
    NotFoundError,
    QuotaError,
    ServiceState,
    ValidationError,
)


@pytest.fixture
def state(tmp_path):
    """Open-mode state on a synchronous (workers=0) runner."""
    return ServiceState(JobRunner(workers=0, cache=ResultCache(tmp_path / "cache")))


@pytest.fixture
def tenant(state):
    return state.resolve_tenant(None)


class TestGraphStore:
    def test_upload_edge_list(self, state, tenant):
        graph = gbreg(20, 2, 3, 0).graph
        record = state.create_graph(tenant, {"edges": graph_to_string(graph)})
        assert record["vertices"] == 20
        assert record["source"] == "upload"
        assert state.get_graph(record["id"]) == graph

    def test_generator_spec(self, state, tenant):
        record = state.create_graph(
            tenant,
            {"generator": "gbreg",
             "params": {"vertices": 20, "width": 2, "degree": 3, "seed": 0}},
        )
        # Content address matches a local build of the same spec.
        assert state.get_graph(record["id"]) == gbreg(20, 2, 3, 0).graph

    @pytest.mark.parametrize(
        "model, params",
        [
            ("gbreg", {"vertices": 40, "width": 4, "degree": 3, "seed": 2}),
            ("g2set", {"vertices": 40, "p": 0.1, "width": 3, "seed": 2}),
            ("gnp", {"vertices": 40, "p": 0.1, "seed": 2}),
            ("ladder", {"vertices": 20}),
            ("grid", {"vertices": 36}),
            ("btree", {"vertices": 31}),
        ],
    )
    def test_generator_spec_matches_cli_generate(self, tmp_path, model, params):
        from repro.cli import main
        from repro.graphs.graph import graph_fingerprint
        from repro.graphs.io import read_edge_list
        from repro.service.state import graph_from_generator_spec

        out = tmp_path / "g.edges"
        flags = [item for name, value in params.items()
                 for item in (f"--{name}", str(value))]
        assert main(["generate", model, *flags, "--out", str(out)]) == 0
        assert graph_fingerprint(read_edge_list(out)) == graph_fingerprint(
            graph_from_generator_spec(model, params)
        )

    def test_reupload_is_idempotent(self, state, tenant):
        graph = gbreg(20, 2, 3, 0).graph
        first = state.create_graph(tenant, {"edges": graph_to_string(graph)})
        second = state.create_graph(tenant, {"edges": graph_to_string(graph)})
        assert first["id"] == second["id"]
        assert len(state.list_graphs(tenant)) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"edges": "not an edge list !!"},
            {"generator": "nope"},
            {"generator": "gbreg", "params": {"bogus": 1}},
            {"generator": "gbreg", "params": {"vertices": "NaN"}},
            {"generator": "gbreg", "params": {"vertices": 20.9, "width": 2.5}},
            {"generator": "gbreg", "params": {"vertices": True}},
        ],
    )
    def test_bad_payloads_are_rejected(self, state, tenant, payload):
        with pytest.raises(ValidationError):
            state.create_graph(tenant, payload)

    def test_unknown_graph_404(self, state, tenant):
        with pytest.raises(NotFoundError):
            state.get_graph("feedbeef")
        with pytest.raises(NotFoundError):
            state.graph_record("feedbeef")


class TestTenancy:
    def test_open_mode_maps_everyone_to_public(self, state):
        assert state.resolve_tenant(None).name == "public"
        assert state.resolve_tenant("anything").name == "public"

    def test_keyed_mode_requires_a_known_key(self, tmp_path):
        state = ServiceState(
            JobRunner(workers=0),
            api_keys={"k1": {"name": "alice"}, "k2": {"name": "bob"}},
        )
        assert state.resolve_tenant("k1").name == "alice"
        with pytest.raises(AuthError):
            state.resolve_tenant(None)
        with pytest.raises(AuthError):
            state.resolve_tenant("wrong")

    def test_graph_quota(self, tmp_path):
        state = ServiceState(
            JobRunner(workers=0), api_keys={"k": {"name": "a", "max_graphs": 1}}
        )
        tenant = state.resolve_tenant("k")
        state.create_graph(
            tenant, {"generator": "gbreg", "params": {"vertices": 12, "width": 2}}
        )
        with pytest.raises(QuotaError):
            state.create_graph(
                tenant, {"generator": "gbreg", "params": {"vertices": 20, "width": 2}}
            )

    def test_inflight_quota(self, state, tenant, tmp_path):
        keyed = ServiceState(
            JobRunner(workers=0), api_keys={"k": {"name": "a", "max_inflight": 2}}
        )
        t = keyed.resolve_tenant("k")
        record = keyed.create_graph(
            t, {"generator": "gbreg", "params": {"vertices": 12, "width": 2}}
        )
        keyed.submit_jobs(t, {"graph": record["id"], "algorithm": "kl", "seed": 0})
        keyed.submit_jobs(t, {"graph": record["id"], "algorithm": "kl", "seed": 1})
        with pytest.raises(QuotaError):
            keyed.submit_jobs(t, {"graph": record["id"], "algorithm": "kl", "seed": 2})

    def test_jobs_are_tenant_scoped(self):
        state = ServiceState(
            JobRunner(workers=0),
            api_keys={"k1": {"name": "alice"}, "k2": {"name": "bob"}},
        )
        alice, bob = state.resolve_tenant("k1"), state.resolve_tenant("k2")
        record = state.create_graph(
            alice, {"generator": "gbreg", "params": {"vertices": 12, "width": 2}}
        )
        (job,) = state.submit_jobs(
            alice, {"graph": record["id"], "algorithm": "kl", "seed": 0}
        )
        assert state.job_status(alice, job["id"])["id"] == job["id"]
        with pytest.raises(NotFoundError):
            state.job_status(bob, job["id"])
        assert state.list_jobs(bob) == []


class TestJobs:
    def _graph(self, state, tenant):
        return state.create_graph(
            tenant,
            {"generator": "gbreg",
             "params": {"vertices": 20, "width": 2, "degree": 3, "seed": 0}},
        )

    def test_submit_poll_and_result(self, state, tenant):
        record = self._graph(state, tenant)
        (job,) = state.submit_jobs(
            tenant, {"graph": record["id"], "algorithm": "kl", "seed": 3}
        )
        assert job["state"] == "queued"
        state.runner.step()
        status = state.job_status(tenant, job["id"])
        assert status["state"] == "done"
        assert status["result"]["status"] == "ok"
        assert status["result"]["cut"] is not None
        # The content address serves the identical payload.
        payload = state.result_by_key(status["cache_key"])
        assert payload["cut"] == status["result"]["cut"]

    def test_starts_expand_to_derived_seeds(self, state, tenant):
        record = self._graph(state, tenant)
        jobs = state.submit_jobs(
            tenant,
            {"graph": record["id"], "algorithm": "kl", "seed": 1, "starts": 3},
        )
        master = LaggedFibonacciRandom(1)
        assert [j["seed"] for j in jobs] == [derive_seed(master, i) for i in range(3)]

    def test_single_start_uses_the_plain_seed(self, state, tenant):
        record = self._graph(state, tenant)
        jobs = state.submit_jobs(
            tenant, {"graph": record["id"], "algorithm": "kl", "seed": 1}
        )
        assert [j["seed"] for j in jobs] == [1]

    def test_explicit_seed_list(self, state, tenant):
        record = self._graph(state, tenant)
        jobs = state.submit_jobs(
            tenant, {"graph": record["id"], "algorithm": "kl", "seeds": [5, 6]}
        )
        assert [j["seed"] for j in jobs] == [5, 6]

    def test_cancel_queued_job(self, state, tenant):
        record = self._graph(state, tenant)
        (job,) = state.submit_jobs(
            tenant, {"graph": record["id"], "algorithm": "kl", "seed": 0}
        )
        outcome = state.cancel_job(tenant, job["id"])
        assert outcome["cancelled"] is True
        assert state.job_status(tenant, job["id"])["state"] == "cancelled"

    def test_list_jobs_state_filter(self, state, tenant):
        record = self._graph(state, tenant)
        state.submit_jobs(
            tenant, {"graph": record["id"], "algorithm": "kl", "seeds": [0, 1]}
        )
        state.runner.step()
        assert len(state.list_jobs(tenant, state="done")) == 1
        assert len(state.list_jobs(tenant, state="queued")) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"algorithm": "kl"},  # no graph
            {"graph": "missing", "algorithm": "kl"},  # resolved to 404 first
            {"graph": "G", "algorithm": "nope"},
            {"graph": "G", "algorithm": "hfm"},  # hypergraph domain
            {"graph": "G", "algorithm": "cycles"},  # degree-3 graph unsupported
            {"graph": "G", "algorithm": "kl", "starts": 0},
            {"graph": "G", "algorithm": "kl", "seeds": []},
            {"graph": "G", "algorithm": "kl", "seeds": ["x"]},
            {"graph": "G", "algorithm": "kl", "params": {"bogus": 1}},
        ],
    )
    def test_bad_submissions_are_rejected(self, state, tenant, payload):
        record = self._graph(state, tenant)
        if payload.get("graph") == "G":
            payload = {**payload, "graph": record["id"]}
        with pytest.raises((ValidationError, NotFoundError)):
            state.submit_jobs(tenant, payload)

    def test_health_reports_counts(self, state, tenant):
        health = state.health()
        assert health["status"] == "ok"
        assert health["open_mode"] is True
        assert "kl" in health["algorithms"]
