"""ServiceState: graph store, server-wide caps, job table (no HTTP)."""

from __future__ import annotations

import pytest

from repro.engine import JobRunner, ResultCache
from repro.graphs.io import graph_to_string
from repro.graphs.generators import gbreg
from repro.rng import LaggedFibonacciRandom, derive_seed
from repro.service import (
    NotFoundError,
    QuotaError,
    ServiceState,
    ValidationError,
)
from repro.service.state import MAX_GRAPHS, MAX_INFLIGHT_JOBS


@pytest.fixture
def state(tmp_path):
    """State on a synchronous (workers=0) runner."""
    return ServiceState(JobRunner(workers=0, cache=ResultCache(tmp_path / "cache")))


class TestGraphStore:
    def test_upload_edge_list(self, state):
        graph = gbreg(20, 2, 3, 0).graph
        record = state.create_graph({"edges": graph_to_string(graph)})
        assert record["vertices"] == 20
        assert record["source"] == "upload"
        assert state.get_graph(record["id"]) == graph

    def test_generator_spec(self, state):
        record = state.create_graph(
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

    def test_reupload_is_idempotent(self, state):
        graph = gbreg(20, 2, 3, 0).graph
        first = state.create_graph({"edges": graph_to_string(graph)})
        second = state.create_graph({"edges": graph_to_string(graph)})
        assert first["id"] == second["id"]
        assert len(state.list_graphs()) == 1

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
    def test_bad_payloads_are_rejected(self, state, payload):
        with pytest.raises(ValidationError):
            state.create_graph(payload)

    def test_unknown_graph_404(self, state):
        with pytest.raises(NotFoundError):
            state.get_graph("feedbeef")
        with pytest.raises(NotFoundError):
            state.graph_record("feedbeef")


class TestTenancy:
    """One open tenant: every client shares the server-wide caps."""

    def test_graph_quota(self, state):
        def ladder(vertices):
            return {"generator": "ladder", "params": {"vertices": vertices}}

        first = state.create_graph(ladder(4))
        for index in range(1, MAX_GRAPHS):
            state.create_graph(ladder(4 + 2 * index))
        with pytest.raises(QuotaError):
            state.create_graph(ladder(4 + 2 * MAX_GRAPHS))
        # A stored graph is not a new one: re-uploading it never hits the cap.
        assert state.create_graph(ladder(4))["id"] == first["id"]
        assert state.health()["graphs"] == MAX_GRAPHS

    def test_inflight_quota(self, state):
        record = state.create_graph(
            {"generator": "gbreg", "params": {"vertices": 12, "width": 2}}
        )
        seeds = list(range(MAX_INFLIGHT_JOBS + 1))
        submission = {"graph": record["id"], "algorithm": "kl"}
        state.submit_jobs({**submission, "seed": seeds[-1]})
        # A submission that fits on its own is refused whole beside queued jobs.
        with pytest.raises(QuotaError):
            state.submit_jobs({**submission, "seeds": seeds[:-1]})
        assert (state.health()["jobs"], state.runner.pending()) == (1, 1)
        state.runner.step()  # a finished job no longer counts
        state.submit_jobs({**submission, "seeds": seeds[:-1]})
        with pytest.raises(QuotaError):
            state.submit_jobs({**submission, "seed": MAX_INFLIGHT_JOBS + 1})

    @pytest.mark.parametrize(
        "payload",
        [{"seed": 0, "starts": MAX_INFLIGHT_JOBS + 1},
         {"seeds": list(range(MAX_INFLIGHT_JOBS + 1))}],
        ids=["starts", "seeds"],
    )
    def test_submission_past_the_cap_is_invalid(self, state, monkeypatch, payload):
        import repro.service.state as state_module

        def derived(*args):
            raise AssertionError("seeds derived for a submission that cannot fit")

        monkeypatch.setattr(state_module, "start_seeds", derived)
        record = state.create_graph(
            {"generator": "gbreg", "params": {"vertices": 12, "width": 2}}
        )
        with pytest.raises(ValidationError, match=f"limit: {MAX_INFLIGHT_JOBS}"):
            state.submit_jobs({"graph": record["id"], "algorithm": "kl", **payload})
        assert (state.health()["jobs"], state.runner.pending()) == (0, 0)

    def test_inflight_cap_with_many_finished_records(self, state):
        record = state.create_graph(
            {"generator": "gbreg", "params": {"vertices": 12, "width": 2}}
        )
        submission = {"graph": record["id"], "algorithm": "kl"}
        cached = list(range(MAX_INFLIGHT_JOBS))
        state.submit_jobs({**submission, "seeds": cached})
        while state.runner.step():
            pass
        while state.health()["jobs"] < 10_000:  # cache hits finish at submission
            state.submit_jobs({**submission, "seeds": cached})
        fresh = list(range(1000, 1000 + MAX_INFLIGHT_JOBS + 1))
        state.submit_jobs({**submission, "seeds": fresh[:-1]})
        with pytest.raises(QuotaError, match=f"limit: {MAX_INFLIGHT_JOBS}"):
            state.submit_jobs({**submission, "seed": fresh[-1]})
        state.runner.step()
        state.submit_jobs({**submission, "seed": fresh[-1]})


class TestJobs:
    def _graph(self, state):
        return state.create_graph(
            {"generator": "gbreg",
             "params": {"vertices": 20, "width": 2, "degree": 3, "seed": 0}},
        )

    def test_submit_poll_and_result(self, state):
        record = self._graph(state)
        (job,) = state.submit_jobs(
            {"graph": record["id"], "algorithm": "kl", "seed": 3}
        )
        assert job["state"] == "queued"
        state.runner.step()
        status = state.job_status(job["id"])
        assert status["state"] == "done"
        assert status["result"]["status"] == "ok"
        assert status["result"]["cut"] is not None
        # The content address serves the identical payload.
        payload = state.result_by_key(status["cache_key"])
        assert payload["cut"] == status["result"]["cut"]

    def test_starts_expand_to_derived_seeds(self, state):
        record = self._graph(state)
        jobs = state.submit_jobs(
            {"graph": record["id"], "algorithm": "kl", "seed": 1, "starts": 3},
        )
        master = LaggedFibonacciRandom(1)
        assert [j["seed"] for j in jobs] == [derive_seed(master, i) for i in range(3)]

    def test_single_start_uses_the_plain_seed(self, state):
        record = self._graph(state)
        jobs = state.submit_jobs(
            {"graph": record["id"], "algorithm": "kl", "seed": 1}
        )
        assert [j["seed"] for j in jobs] == [1]

    def test_explicit_seed_list(self, state):
        record = self._graph(state)
        jobs = state.submit_jobs(
            {"graph": record["id"], "algorithm": "kl", "seeds": [5, 6]}
        )
        assert [j["seed"] for j in jobs] == [5, 6]

    def test_cancel_queued_job(self, state):
        record = self._graph(state)
        (job,) = state.submit_jobs(
            {"graph": record["id"], "algorithm": "kl", "seed": 0}
        )
        outcome = state.cancel_job(job["id"])
        assert outcome["cancelled"] is True
        assert state.job_status(job["id"])["state"] == "cancelled"

    def test_list_jobs_state_filter(self, state):
        record = self._graph(state)
        state.submit_jobs(
            {"graph": record["id"], "algorithm": "kl", "seeds": [0, 1]}
        )
        state.runner.step()
        assert len(state.list_jobs(state="done")) == 1
        assert len(state.list_jobs(state="queued")) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"algorithm": "kl"},  # no graph
            {"graph": "missing", "algorithm": "kl"},  # resolved to 404 first
            {"graph": "G", "algorithm": "nope"},
            {"graph": "G", "algorithm": "hfm"},  # the retired netlist FM
            {"graph": "G", "algorithm": "cycles"},  # degree-3 graph unsupported
            {"graph": "G", "algorithm": "kl", "starts": 0},
            {"graph": "G", "algorithm": "kl", "seeds": []},
            {"graph": "G", "algorithm": "kl", "seeds": ["x"]},
            {"graph": "G", "algorithm": "kl", "params": {"bogus": 1}},
        ],
    )
    def test_bad_submissions_are_rejected(self, state, payload):
        record = self._graph(state)
        if payload.get("graph") == "G":
            payload = {**payload, "graph": record["id"]}
        with pytest.raises((ValidationError, NotFoundError)):
            state.submit_jobs(payload)

    def test_health_reports_counts(self, state):
        health = state.health()
        assert health["status"] == "ok"
        assert (health["graphs"], health["jobs"]) == (0, 0)
        assert "kl" in health["algorithms"]
