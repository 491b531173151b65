"""Unit tests for Job / AlgorithmSpec / JobResult."""

from __future__ import annotations

import pickle

import pytest

from repro.engine.job import AlgorithmSpec, Job, JobResult
from repro.graphs.graph import Graph, vertex_token


class TestAlgorithmSpec:
    def test_param_order_is_canonical(self):
        a = AlgorithmSpec.make("sa", size_factor=4, b=1)
        b = AlgorithmSpec.make("sa", b=1, size_factor=4)
        assert a == b
        assert hash(a) == hash(b)

    def test_params_dict_round_trip(self):
        spec = AlgorithmSpec.make("sa", size_factor=4)
        assert spec.params_dict() == {"size_factor": 4}

    def test_describe(self):
        assert AlgorithmSpec.make("kl").describe() == "kl"
        assert AlgorithmSpec.make("sa", size_factor=4).describe() == "sa(size_factor=4)"

    def test_picklable(self):
        spec = AlgorithmSpec.make("csa", size_factor=2)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestJob:
    def test_algorithm_name(self):
        # A result names its algorithm by the spec's name, without params.
        job = Job("g", AlgorithmSpec.make("sa", size_factor=2), 0)
        assert JobResult.from_payload(job, {"cut": 3}).algorithm == "sa"

    def test_tags(self):
        job = Job("g", AlgorithmSpec.make("kl"), 0, tags=(("start", 3),))
        assert job.tag("start") == 3
        assert job.tag("missing", "x") == "x"

    def test_picklable_with_spec(self):
        job = Job("g", AlgorithmSpec.make("sa", size_factor=2), 7, job_id="j")
        assert pickle.loads(pickle.dumps(job)) == job


class TestJobResult:
    def test_ok_property(self):
        good = JobResult("j", "g", "kl", 0, "ok", 3, (), 0.1)
        bad = JobResult("j", "g", "kl", 0, "failed", None, (), 0.1, error="boom")
        assert good.ok and not bad.ok

    def test_bisection_round_trip(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        side0 = tuple(sorted(vertex_token(v) for v in (0, 1)))
        result = JobResult("j", "g", "kl", 0, "ok", 2, side0, 0.0)
        bisection = result.bisection(graph)
        assert bisection.cut == 2
        assert set(bisection.side(0)) == {0, 1}

    def test_bisection_on_failure_raises(self):
        result = JobResult("j", "g", "kl", 0, "failed", None, (), 0.0, error="x")
        with pytest.raises(ValueError, match="failed"):
            result.bisection(Graph.from_edges([(0, 1)]))

    def test_bisection_unknown_vertex_raises(self):
        result = JobResult("j", "g", "kl", 0, "ok", 1, ("int:99",), 0.0)
        with pytest.raises(ValueError, match="not in graph"):
            result.bisection(Graph.from_edges([(0, 1)]))
