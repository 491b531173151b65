"""CLI coverage for the service-era commands: cache and interrupts."""

from __future__ import annotations

import io

import repro.cli as cli
from repro.cli import main
from repro.engine import ResultCache


class TestCacheCommand:
    def _fill(self, root, n=3):
        cache = ResultCache(root)
        for index in range(n):
            key = f"{index:02x}" + "cd" * 31
            cache.put(key, {"status": "ok", "cut": index, "side0": [], "seconds": 0.1})
        return cache

    def test_stats(self, tmp_path, capsys):
        self._fill(tmp_path / "c")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out
        assert str(tmp_path / "c") in out

    def test_stats_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "none")]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_to_budget(self, tmp_path, capsys):
        cache = self._fill(tmp_path / "c")
        assert main(
            ["cache", "prune", "--max-bytes", "0", "--cache-dir", str(tmp_path / "c")]
        ) == 0
        assert "removed 3" in capsys.readouterr().out
        assert len(cache) == 0

    def test_prune_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path / "c")]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_cache_dir_defaults_to_env(self, tmp_path, capsys, monkeypatch):
        # conftest points REPRO_CACHE_DIR at an isolated tmp dir already.
        assert main(["cache", "stats"]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestInterruptHandling:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def boom(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", boom)
        assert main(["cache", "stats"]) == 130

    def test_broken_pipe_exits_0(self, monkeypatch):
        # Swap in an fd-less stdout so the handler's devnull redirect is a
        # no-op instead of rewiring the test harness's capture descriptor.
        def pipe(argv):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", pipe)
        monkeypatch.setattr("sys.stdout", io.StringIO())
        assert main(["cache", "stats"]) == 0

