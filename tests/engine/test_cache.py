"""Unit tests for the content-addressed result cache."""

from __future__ import annotations

import pytest

from repro.engine.cache import ResultCache, cache_key, default_cache_dir, job_cache_key
from repro.engine.job import AlgorithmSpec, Job
from repro.graphs import graph_fingerprint
from repro.graphs.generators import gbreg

FP_A = "a" * 64
FP_B = "b" * 64


class TestCacheKey:
    def test_deterministic(self):
        spec = AlgorithmSpec.make("sa", size_factor=4)
        assert cache_key(FP_A, spec, 7) == cache_key(FP_A, spec, 7)

    def test_sensitive_to_every_component(self):
        spec = AlgorithmSpec.make("sa", size_factor=4)
        base = cache_key(FP_A, spec, 7)
        assert cache_key(FP_B, spec, 7) != base
        assert cache_key(FP_A, AlgorithmSpec.make("sa", size_factor=8), 7) != base
        assert cache_key(FP_A, AlgorithmSpec.make("kl"), 7) != base
        assert cache_key(FP_A, spec, 8) != base

    def test_param_order_does_not_matter(self):
        a = AlgorithmSpec.make("x", p=1, q=2)
        b = AlgorithmSpec.make("x", q=2, p=1)
        assert cache_key(FP_A, a, 0) == cache_key(FP_A, b, 0)


class TestGraphCacheKeyPins:
    """Keys of real graph cells, pinned: a change here orphans every cache."""

    GRAPH = gbreg(200, 4, 3, 0).graph
    FINGERPRINT = "237fe093d4207b467997a347acdc0aa447744badfe1cdd4cf905f7acd1d5efc8"

    def test_fingerprint(self):
        assert graph_fingerprint(self.GRAPH) == self.FINGERPRINT

    @pytest.mark.parametrize(
        "name, key",
        [
            ("kl", "d4a879cadb5173bd6049071519776627e441866d6b0b473e10cc1b4e5582e321"),
            ("ckl", "6b4aedf2b56ec5b73e3637bfd041d4722f167451689c98898d8e88dee8a5d040"),
            ("sa", "3c99d4b26fb3eff45606cedcd90d80a59b7f8c11372a357ef5b899adcf004147"),
        ],
    )
    def test_key(self, name, key):
        spec = AlgorithmSpec.make(name)
        assert cache_key(graph_fingerprint(self.GRAPH), spec, 7) == key
        job = Job(graph_key="g", algorithm=spec, seed=7, job_id="j")
        assert job_cache_key(job, self.GRAPH) == key


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        payload = {"status": "ok", "cut": 4, "side0": ["int:0"], "seconds": 0.5}
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert len(cache) == 1

    def test_entry_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(key, {
            "status": "ok", "cut": 4, "side0": ["int:0", "str:é"], "seconds": 0.125,
            "error": None, "counters": {"passes": 2, "pass_gains": [3, 0]},
        })
        assert cache.path_for(key).read_bytes() == (
            b'{"counters": {"pass_gains": [3, 0], "passes": 2}, "cut": 4, '
            b'"error": null, "seconds": 0.125, "side0": ["int:0", "str:\\u00e9"], '
            b'"status": "ok"}'
        )

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(key, {"cut": 1})
        path = cache.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(FP_A, AlgorithmSpec.make("kl"), 1)
        cache.put(key, {"cut": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
