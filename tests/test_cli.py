"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

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
    def test_mixed_labels(self, graph_file, tmp_path, capsys, monkeypatch, algorithm):
        # Integer and string labels do not sort; the CSR kernels rank them
        # in insertion order (the dict reference kernels cannot tie-break).
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
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
        assert main(["score", str(mixed), str(saved)]) == 0
        assert f"cut={cut} " in capsys.readouterr().out

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


class TestKway:
    def test_kway_partition(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        main(["generate", "grid", "--vertices", "64", "--out", str(out)])
        assert main(["kway", str(out), "--k", "4", "--seed", "1"]) == 0
        text = capsys.readouterr().out.splitlines()[-1]
        assert "k=4" in text
        assert "part_weights=(16, 16, 16, 16)" in text

    def test_kway_odd_k(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        main(["generate", "grid", "--vertices", "36", "--out", str(out)])
        assert main(["kway", str(out), "--k", "3"]) == 0
        assert "k=3" in capsys.readouterr().out


class TestCertify:
    def test_run_with_certify(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        main(["generate", "gbreg", "--vertices", "60", "--width", "4",
              "--degree", "3", "--seed", "5", "--out", str(out)])
        assert main(["run", str(out), "--algorithm", "ckl", "--certify"]) == 0
        text = capsys.readouterr().out
        assert "lower bound:" in text
        assert "gap ratio:" in text


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


class TestNetlist:
    def test_generate_and_run(self, tmp_path, capsys):
        path = tmp_path / "n.hgr"
        assert main(["netlist", "generate", str(path), "--cells", "80", "--seed", "2"]) == 0
        assert "wrote" in capsys.readouterr().out
        for algorithm in ("fm", "cfm", "multilevel"):
            assert main(["netlist", "run", str(path), "--algorithm", algorithm]) == 0
            out = capsys.readouterr().out
            assert "net_cut=" in out
            assert algorithm in out

    def test_bad_algorithm_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["netlist", "run", "x.hgr", "--algorithm", "nonsense"])

    def test_kway_netlist(self, tmp_path, capsys):
        path = tmp_path / "n.hgr"
        main(["netlist", "generate", str(path), "--cells", "60", "--seed", "3"])
        capsys.readouterr()
        assert main(["netlist", "run", str(path), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "kway k=3" in out
        assert "connectivity-1=" in out


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
            ["info", "{missing}"],
            ["run", "{malformed}"],
            ["kway", "{malformed}", "--k", "2"],
            ["score", "{malformed}", "{missing}"],
            ["info", "{tmp}"],
            ["run", "{good}", "--telemetry", "{tmp}/no/such/dir/t.jsonl"],
        ],
        ids=["run-missing", "info-missing", "run-malformed", "kway-malformed",
             "score-malformed", "info-directory", "run-telemetry-dir"],
    )
    def test_one_line_error_exit_2(self, tmp_path, capsys, argv):
        (tmp_path / "bad.edges").write_text("0 1\nnot an edge\n", encoding="utf-8")
        main(["generate", "ladder", "--vertices", "8", "--out", str(tmp_path / "g.edges")])
        capsys.readouterr()
        paths = {
            "missing": tmp_path / "missing.edges",
            "malformed": tmp_path / "bad.edges",
            "good": tmp_path / "g.edges",
            "tmp": tmp_path,
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("repro-bisect: error: ")
        assert err.count("\n") == 1
