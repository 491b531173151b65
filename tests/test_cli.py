"""Unit tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list


class TestGenerate:
    def test_gbreg(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code = main(
            [
                "generate",
                "gbreg",
                "--vertices",
                "60",
                "--width",
                "4",
                "--degree",
                "3",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        graph = read_edge_list(out)
        assert graph.num_vertices == 60
        assert "wrote" in capsys.readouterr().out

    def test_ladder(self, tmp_path):
        out = tmp_path / "l.edges"
        assert main(["generate", "ladder", "--vertices", "20", "--out", str(out)]) == 0
        assert read_edge_list(out).num_vertices == 20

    def test_gnp(self, tmp_path):
        out = tmp_path / "r.edges"
        code = main(
            ["generate", "gnp", "--vertices", "50", "--p", "0.1", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        assert read_edge_list(out).num_vertices == 50

    def test_btree_and_grid(self, tmp_path):
        for model, n in (("btree", "31"), ("grid", "16")):
            out = tmp_path / f"{model}.edges"
            assert main(["generate", model, "--vertices", n, "--out", str(out)]) == 0


class TestRun:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.edges"
        main(
            [
                "generate", "gbreg", "--vertices", "60", "--width", "4",
                "--degree", "3", "--seed", "3", "--out", str(out),
            ]
        )
        return str(out)

    @pytest.mark.parametrize("algorithm", ["kl", "ckl", "fm", "greedy", "multilevel"])
    def test_algorithms(self, graph_file, capsys, algorithm):
        assert main(["run", graph_file, "--algorithm", algorithm, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cut=" in out
        assert algorithm in out

    def test_show_sides(self, graph_file, capsys):
        main(["run", graph_file, "--algorithm", "kl", "--show-sides"])
        out = capsys.readouterr().out
        assert "side 0:" in out
        assert "side 1:" in out

    @pytest.mark.parametrize("algorithm", ["kl", "fm", "ckl"])
    def test_mixed_labels(self, graph_file, tmp_path, capsys, algorithm):
        # Integer and string labels do not sort; the kernels rank them in
        # insertion order to break gain ties.
        graph = read_edge_list(graph_file)
        label = {v: v if v % 3 else f"s{v}" for v in graph.vertices()}
        mixed = tmp_path / "mixed.edges"
        write_edge_list(
            Graph.from_edges((label[u], label[v]) for u, v, _ in graph.edges()), mixed
        )
        saved = tmp_path / "mixed.part"
        argv = ["run", str(mixed), "--algorithm", algorithm, "--seed", "1",
                "--save-partition", str(saved)]
        assert main(argv) == 0
        cut = capsys.readouterr().out.split("cut=")[1].split()[0]
        header, *lines = saved.read_text(encoding="utf-8").splitlines()
        assert header == "# repro partition k=2"
        side = dict(line.split() for line in lines)
        assert len(side) == graph.num_vertices
        crossing = sum(side[str(label[u])] != side[str(label[v])] for u, v, _ in graph.edges())
        assert str(crossing) == cut

    def test_cycles_solver(self, tmp_path, capsys):
        out = tmp_path / "c.edges"
        main(["generate", "gbreg", "--vertices", "40", "--width", "2", "--degree", "2",
              "--seed", "4", "--out", str(out)])
        assert main(["run", str(out), "--algorithm", "cycles"]) == 0
        assert "cut=" in capsys.readouterr().out


class TestTable:
    def test_table_smoke_kl_only(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["table", "ladder", "--kl-only", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "bkl" in out
        assert "bckl" in out
        assert "bsa" not in out

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "nonsense"])


class TestReport:
    def test_report_to_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        out = tmp_path / "report.md"
        assert main(["report", "--kl-only", "--seed", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# repro experiment report" in text
        assert "Gbreg" in text
        assert "wrote report" in capsys.readouterr().out

    def test_report_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["report", "--kl-only", "--seed", "2"]) == 0
        assert "Headline summary" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_exists(self):
        parser = build_parser()
        assert parser.prog == "repro-bisect"


class TestInputErrors:
    """Unusable input is one ``error:`` line on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{missing}"],
            ["run", "{malformed}"],
            ["run", "{tmp}"],
            ["run", "{good}", "--telemetry", "{tmp}/no/such/dir/t.jsonl"],
            ["generate", "gbreg", "--vertices", "7", "--width", "2", "--degree", "3",
             "--out", "{out}"],
            ["generate", "gbreg", "--vertices", "10", "--width", "100", "--degree", "3",
             "--out", "{out}"],
            ["generate", "gnp", "--vertices", "10", "--p", "2", "--out", "{out}"],
            ["generate", "btree", "--vertices", "0", "--out", "{out}"],
            ["cache", "prune", "--max-bytes", "-5", "--cache-dir", "{tmp}/cache"],
            ["run", "{empty}"],
            ["netlist", "run", "x.hgr"],
            ["run", "{good}", "--save-partition", "{tmp}/no/such/dir/p.part"],
            ["run", "{good}", "--save-partition", "{tmp}"],
            ["generate", "ladder", "--vertices", "8", "--out", "{tmp}/no/such/dir/g.edges"],
            ["generate", "ladder", "--vertices", "8", "--out", "{tmp}"],
            ["batch", "{spec}", "--no-cache", "--out", "{tmp}/no/such/dir/r.jsonl"],
            ["batch", "{spec}", "--no-cache", "--out", "{tmp}"],
            ["report", "--kl-only", "--no-cache", "--out", "{tmp}/no/such/dir/r.txt"],
            ["report", "--kl-only", "--no-cache", "--out", "{tmp}"],
            ["check", "--quick", "--algorithm", "kl", "--json", "{tmp}/no/such/dir/c.json"],
            ["lint", "--rule", "R001", "--out", "{tmp}/no/such/dir/l.txt"],
        ],
        ids=["run-missing", "run-malformed", "run-graph-directory", "run-telemetry-dir",
             "generate-gbreg-odd", "generate-gbreg-width", "generate-gnp-p",
             "generate-btree-empty", "cache-prune-negative", "run-empty-graph",
             "netlist-removed", "run-save-missing-dir", "run-save-directory",
             "generate-out-missing-dir", "generate-out-directory",
             "batch-out-missing-dir", "batch-out-directory", "report-out-missing-dir",
             "report-out-directory", "check-json-missing-dir", "lint-out-missing-dir"],
    )
    def test_one_line_error_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        (tmp_path / "bad.edges").write_text("0 1\nnot an edge\n", encoding="utf-8")
        (tmp_path / "spec.json").write_text(
            '{"jobs": [{"graph": "g.edges", "algorithm": "kl"}]}', encoding="utf-8"
        )
        (tmp_path / "empty.edges").write_text("", encoding="utf-8")
        main(["generate", "ladder", "--vertices", "8", "--out", str(tmp_path / "g.edges")])
        capsys.readouterr()
        paths = {
            "missing": tmp_path / "missing.edges",
            "malformed": tmp_path / "bad.edges",
            "good": tmp_path / "g.edges",
            "tmp": tmp_path,
            "out": tmp_path / "o.edges",
            "empty": tmp_path / "empty.edges",
            "spec": tmp_path / "spec.json",
        }
        try:
            code, usage = main([arg.format(**paths) for arg in argv]), ""
        except SystemExit as exc:  # argparse's refusal: its usage, then one line
            code, usage = exc.code, build_parser().format_usage()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(usage)
        err = err[len(usage):]
        assert not usage or "invalid choice" in err
        assert "Traceback" not in err
        assert err.startswith("repro-bisect: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["top", "events.jsonl", "--once"], "invalid choice: 'top'"),
            (["run", "g.edges", "--profile", "p.txt"],
             "unrecognized arguments: --profile p.txt"),
            (["kway", "g.edges", "--k", "4"], "invalid choice: 'kway'"),
            (["score", "g.edges", "p.part"], "invalid choice: 'score'"),
            (["info", "g.edges"], "invalid choice: 'info'"),
            (["run", "g.edges", "--certify"], "unrecognized arguments: --certify"),
        ],
        ids=["top", "run-profile", "kway", "score", "info", "run-certify"],
    )
    def test_removed_viewer_options_are_argparse_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        usage = build_parser().format_usage()
        assert err.startswith(usage)
        err = err[len(usage):]
        assert err.startswith("repro-bisect: error: ")
        assert message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{good}", "--save-partition", "{tmp}/no/such/dir/p.part"],
            ["run", "{good}", "--save-partition", "{tmp}"],
            ["batch", "{spec}", "--no-cache", "--out", "{tmp}/no/such/dir/r.jsonl"],
            ["batch", "{spec}", "--no-cache", "--out", "{tmp}"],
            ["report", "--kl-only", "--no-cache", "--out", "{tmp}/no/such/dir/r.txt"],
            ["report", "--kl-only", "--no-cache", "--out", "{tmp}"],
            ["check", "--quick", "--algorithm", "kl", "--json", "{tmp}/no/such/dir/c.json"],
            ["check", "--quick", "--algorithm", "kl", "--json", "{tmp}"],
        ],
        ids=["run-missing-dir", "run-directory", "batch-missing-dir", "batch-directory",
             "report-missing-dir", "report-directory", "check-missing-dir", "check-directory"],
    )
    def test_unwritable_output_is_refused_before_the_work(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        import repro.cli as cli

        def computed(args):
            raise AssertionError(f"{args.command} ran before its output path was checked")

        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", computed)
        (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
        (tmp_path / "spec.json").write_text(
            '{"jobs": [{"graph": "g.edges", "algorithm": "kl"}]}', encoding="utf-8"
        )
        before = sorted(tmp_path.rglob("*"))
        paths = {"good": tmp_path / "g.edges", "spec": tmp_path / "spec.json", "tmp": tmp_path}
        assert main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-bisect: error: cannot write ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before  # nothing created

    @pytest.mark.parametrize("starts", ["0", "-5"])
    def test_starts_below_one_rejected(self, tmp_path, capsys, starts):
        path = tmp_path / "g.edges"
        main(["generate", "ladder", "--vertices", "8", "--out", str(path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--starts", starts])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("argument --starts: must be at least 1")


def test_import_loads_neither_numpy_nor_bench():
    # Commands import what they use; a plain `run` must not pay for numpy
    # (an optional kernel backend) or the bench protocol.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('numpy', 'repro.bench') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _fresh_modules(statement: str, roots: tuple[str, ...] = ("repro",)) -> list[str]:
    """The modules under ``roots`` a fresh interpreter holds after ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    probe = (
        f"import sys; {statement}; "
        f"print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()  # after whatever the statement printed


def test_import_loads_only_what_run_needs():
    # Package re-exports are lazy: `run --algorithm ckl` imports its
    # algorithm when it runs it, not when the CLI starts.
    loaded = _fresh_modules("import repro.cli", roots=("repro", "hashlib", "multiprocessing"))
    assert "repro.cli" in loaded
    unwanted = (
        "repro.core", "repro.kernels", "repro.partition", "repro.service",
        "repro.engine.handles", "repro.engine.batch", "repro.graphs.generators.",
        # Shared memory serves the service's pool, the ledger `--ledger`,
        # and hashing a cache key or a fingerprint.
        "repro.graphs.shm", "multiprocessing.shared_memory", "repro.obs.ledger", "hashlib",
    )
    assert [m for m in loaded if m.startswith(unwanted)] == []


def test_serial_run_loads_no_thread_pool_or_logging(tmp_path):
    # concurrent.futures (and the logging it imports) waits on pool jobs;
    # a `--jobs 1` batch has none.
    graph = tmp_path / "g.edges"
    assert main(["generate", "gbreg", "--vertices", "60", "--width", "4",
                 "--degree", "3", "--seed", "1", "--out", str(graph)]) == 0
    statement = (
        "from repro.cli import main; "
        f"main(['run', {str(graph)!r}, '--algorithm', 'ckl', '--jobs', '1'])"
    )
    assert _fresh_modules(statement, roots=("concurrent", "logging")) == []


def test_import_repro_loads_only_the_package():
    assert _fresh_modules("import repro") == ["repro"]


def test_report_renderers_do_not_load_bench():
    # The study tables, the check report and the ledger dashboard borrow
    # only the text renderers, which live outside the bench package.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    probe = (
        "import sys, repro.study, repro.verify.check, repro.obs.dashboard; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.bench')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
