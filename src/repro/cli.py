"""Command-line interface: generate graphs, bisect them, print paper tables.

Examples::

    # Generate a Gbreg graph and save it
    repro-bisect generate gbreg --vertices 1000 --width 16 --degree 3 \
        --seed 7 --out graph.edges

    # Bisect a saved graph with every algorithm
    repro-bisect run graph.edges --algorithm ckl --seed 1

    # Best-of-4 starts fanned out over 4 worker processes
    repro-bisect run graph.edges --algorithm ckl --starts 4 --jobs 4

    # Regenerate one of the paper's tables at the current REPRO_SCALE,
    # in parallel, with the result cache making reruns near-free
    repro-bisect table gbreg-d3 --jobs 4

    # Run a declarative batch spec through the engine
    repro-bisect batch jobs.json --jobs 4 --out results.jsonl

    # Canonical fingerprint + stats of a saved graph
    repro-bisect info graph.edges

    # Record a run ledger, then explain a perf delta counter by counter
    repro-bisect table gbreg-d3 --ledger auto
    repro-bisect stats --diff <old.json> <new.json>

    # Verify every registered algorithm against the invariant, exact,
    # and metamorphic oracles (exits non-zero on any violation)
    repro-bisect check --json report.json

    # Serve the engine over HTTP
    repro-bisect serve --port 8642 --workers 4

    # Inspect or bound the content-addressed result cache
    repro-bisect cache stats
    repro-bisect cache prune --max-bytes 50000000
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

# Import from defining modules, and let each command import what it runs
# inside its own function: `run` then loads no generator, batch reader,
# service or algorithm it does not call.
from .engine.cache import ResultCache
from .engine.executor import Engine
from .engine.job import AlgorithmSpec, Job
from .engine.telemetry import Telemetry, Timer
from .graphs.generators import GENERATOR_DEFAULTS
from .graphs.graph import graph_fingerprint
from .graphs.io import read_edge_list
from .rng import resolve_rng, start_seeds

__all__ = ["main"]

# Graph bisectors exposed on `run` (all resolved through the engine registry).
_GRAPH_ALGORITHMS = ("ckl", "csa", "cycles", "fm", "greedy", "kl", "multilevel", "sa")

_TABLES = {
    "gbreg-d3": lambda bench, scale: bench.gbreg_cases(scale, 3),
    "gbreg-d4": lambda bench, scale: bench.gbreg_cases(scale, 4),
    "g2set-2.5": lambda bench, scale: bench.g2set_cases(scale, 2.5),
    "g2set-3": lambda bench, scale: bench.g2set_cases(scale, 3.0),
    "g2set-3.5": lambda bench, scale: bench.g2set_cases(scale, 3.5),
    "g2set-4": lambda bench, scale: bench.g2set_cases(scale, 4.0),
    "gnp": lambda bench, scale: bench.gnp_cases(scale),
    "ladder": lambda bench, scale: bench.ladder_cases(scale),
    "grid": lambda bench, scale: bench.grid_cases(scale),
    "btree": lambda bench, scale: bench.btree_cases(scale),
}


class _InputError(Exception):
    """Unusable user input: reported as one ``error:`` line, exit code 2."""


def _read_input(what: str, path: str, read):
    """``read(path)``, with a missing or malformed file as an ``_InputError``."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read {what} {path}: {exc}") from None


def _write_output(what: str, path: str, write) -> None:
    """``write(path)``, with a path that cannot be written as an ``_InputError``."""
    try:
        write(path)
    except OSError as exc:
        raise _InputError(f"cannot write {what} {path}: {exc}") from None


def _write_text(what: str, path: str, text: str) -> None:
    _write_output(what, path, lambda target: Path(target).write_text(text, encoding="utf-8"))


@contextmanager
def _parameters(what: str):
    """A library ``ValueError`` over bad CLI parameters as an ``_InputError``.

    The library call is the only place the valid ranges are defined; this
    only changes how its refusal reaches the user.
    """
    try:
        yield
    except ValueError as exc:
        raise _InputError(f"{what}: {exc}") from None


def _read_graph(path: str):
    return _read_input("graph", path, read_edge_list)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", metavar="PATH",
        help="write a run ledger (counters, spans, env) after the command; "
        "'auto' content-addresses it next to the result cache",
    )
    parser.add_argument(
        "--profile", metavar="PATH",
        help="sample this process during the command and write a "
        "collapsed-stack profile (flamegraph.pl / speedscope format); "
        "REPRO_PROFILE=1 opts in without the flag",
    )


def _add_engine_options(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the execution engine (1 = serial)",
    )
    parser.add_argument(
        "--telemetry",
        help="append engine telemetry events (and trace spans) to this JSONL file",
    )
    _add_obs_options(parser)
    if cache:
        parser.add_argument(
            "--no-cache", action="store_true", help="disable the result cache"
        )
        parser.add_argument(
            "--cache-dir",
            help="result cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-bisect)",
        )


def _make_engine(
    args: argparse.Namespace,
    cache: bool = True,
    timeout: float | None = None,
    retries: int = 0,
) -> Engine:
    store = None
    if cache and not getattr(args, "no_cache", False):
        store = ResultCache(getattr(args, "cache_dir", None))
    return Engine(
        jobs=args.jobs,
        cache=store,
        telemetry=Telemetry(getattr(args, "telemetry", None)),
        timeout=timeout,
        retries=retries,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graphs.generators import generate_graph
    from .graphs.io import write_edge_list

    params = {name: getattr(args, name) for name in GENERATOR_DEFAULTS[args.model]}
    with _parameters(args.model):
        graph = generate_graph(args.model, params)
    _write_output("graph", args.out, lambda path: write_edge_list(graph, path))
    print(f"wrote {graph!r} to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    if graph.num_vertices == 0:
        raise _InputError(f"graph {args.graph} has no vertices to bisect")
    spec = AlgorithmSpec.make(args.algorithm)
    engine = _make_engine(args, cache=False)
    if args.starts > 1:
        # Best-of-R protocol: the bench harness's start-seed rule.
        seeds = start_seeds(resolve_rng(args.seed), args.starts)
        jobs = [
            Job("graph", spec, seed, job_id=f"start{index}")
            for index, seed in enumerate(seeds)
        ]
    else:
        jobs = [Job("graph", spec, args.seed, job_id="run")]
    results = engine.run(jobs, {"graph": graph})
    good = [r for r in results if r.ok]
    if not good:
        print(f"{args.algorithm}: all {len(results)} start(s) failed "
              f"({results[0].error})", file=sys.stderr)
        return 1
    best = min(good, key=lambda r: r.cut)
    bisection = best.bisection(graph)
    elapsed = sum(r.seconds for r in results)
    print(
        f"{args.algorithm}: cut={bisection.cut} imbalance={bisection.imbalance} "
        f"time={elapsed:.3f}s |V|={graph.num_vertices} |E|={graph.num_edges}"
    )
    if args.starts > 1:
        print(f"starts: {len(results)}  cuts: {[r.cut for r in results]}")
    if args.certify:
        from .partition.bounds import certify

        report = certify(graph, bisection.cut)
        print(
            f"lower bound: {report['lower']:.2f}  gap ratio: {report['gap_ratio']:.2f}"
            + ("  (provably optimal)" if report["optimal"] else "")
        )
    if args.save_partition:
        from .partition.io import write_partition

        _write_output(
            "partition", args.save_partition, lambda path: write_partition(bisection, path)
        )
        print(f"saved partition to {args.save_partition}")
    if args.show_sides:
        print("side 0:", sorted(map(str, bisection.side(0))))
        print("side 1:", sorted(map(str, bisection.side(1))))
    return 0


def _cmd_kway(args: argparse.Namespace) -> int:
    from .partition.kway import recursive_kway

    graph = _read_graph(args.graph)
    with Timer() as timer, _parameters("kway"):
        partition = recursive_kway(graph, args.k, rng=args.seed)
    weights = partition.part_weights()
    print(
        f"k={args.k}: cut={partition.cut} part_weights={weights} "
        f"imbalance_ratio={partition.max_imbalance_ratio():.3f} time={timer.seconds:.3f}s"
    )
    if args.save_partition:
        from .partition.io import write_partition

        _write_output(
            "partition", args.save_partition, lambda path: write_partition(partition, path)
        )
        print(f"saved partition to {args.save_partition}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    """Score a saved partition file against its graph."""
    from .partition.io import read_partition

    graph = _read_graph(args.graph)
    partition = _read_input(
        "partition", args.partition, lambda path: read_partition(graph, path)
    )
    weights = partition.part_weights()
    print(
        f"k={partition.k}: cut={partition.cut} part_weights={weights} "
        f"imbalance_ratio={partition.max_imbalance_ratio():.3f}"
    )
    if partition.k == 2 and args.certify:
        from .partition.bounds import certify

        report = certify(graph, partition.cut)
        print(
            f"lower bound: {report['lower']:.2f}  gap ratio: {report['gap_ratio']:.2f}"
            + ("  (provably optimal)" if report["optimal"] else "")
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench import current_scale
    from .bench.report import generate_report

    scale = current_scale()
    engine = _make_engine(args)
    text = generate_report(
        scale, rng=args.seed, include_sa=not args.kl_only, engine=engine
    )
    if args.out:
        _write_text("report", args.out, text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from . import bench

    scale = bench.current_scale()
    cases = _TABLES[args.table](bench, scale)
    include_sa = not args.kl_only
    algorithms = bench.standard_algorithm_specs(scale, include_sa=include_sa)
    engine = _make_engine(args)
    rows = bench.run_workload(
        cases, algorithms, rng=args.seed, starts=scale.starts, engine=engine
    )
    pairs = (("sa", "csa"), ("kl", "ckl")) if include_sa else (("kl", "ckl"),)
    print(
        bench.render_paper_table(
            f"table {args.table} @ scale={scale.name}", rows, base_pairs=pairs
        )
    )
    print(engine.telemetry.render_summary())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .bench import render_generic_table
    from .engine.batch import read_batch_file, run_batch

    try:
        entries = read_batch_file(args.spec)
    except (OSError, ValueError) as exc:
        print(f"cannot read batch spec {args.spec}: {exc}", file=sys.stderr)
        return 1
    if not entries:
        print("batch spec has no jobs", file=sys.stderr)
        return 1
    engine = _make_engine(args, timeout=args.timeout, retries=args.retries)
    try:
        rows = run_batch(entries, engine)
    except OSError as exc:  # a spec entry names an unreadable graph file
        print(f"batch failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        _write_text("batch results", args.out, lines)
        print(f"wrote {len(rows)} result(s) to {args.out}")
    print(
        render_generic_table(
            ["label", "algorithm", "status", "cut", "time(s)", "cached"],
            [
                [
                    row["label"],
                    row["algorithm"],
                    row["status"],
                    "-" if row["cut"] is None else row["cut"],
                    f"{row['seconds']:.2f}",
                    f"{row['cache_hits']}/{row['starts']}",
                ]
                for row in rows
            ],
            title=f"batch {args.spec}",
        )
    )
    print(engine.telemetry.render_summary())
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def _cmd_info(args: argparse.Namespace) -> int:
    from .graphs.traversal import connected_components

    graph = _read_graph(args.graph)
    print(f"path: {args.graph}")
    print(f"fingerprint: {graph_fingerprint(graph)}")
    print(f"vertices: {graph.num_vertices}")
    print(f"edges: {graph.num_edges}")
    print(f"total edge weight: {graph.total_edge_weight}")
    print(f"total vertex weight: {graph.total_vertex_weight}")
    print(f"average degree: {graph.average_degree():.3f}")
    print(f"connected components: {len(connected_components(graph))}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .bench import render_generic_table
    from .obs import (
        diff_ledgers,
        ledger_dir,
        load_ledger,
        prometheus_text,
        render_ledger,
        render_ledger_diff,
        validate_ledger,
    )

    if args.diff:
        old_path, new_path = args.diff
        try:
            report = diff_ledgers(load_ledger(old_path), load_ledger(new_path))
        except (OSError, ValueError) as exc:
            print(f"cannot diff ledgers: {exc}", file=sys.stderr)
            return 2
        print(render_ledger_diff(report))
        return 0

    if not args.ledgers:
        # No arguments: list what the ledger directory holds.
        directory = ledger_dir()
        rows = []
        for path in sorted(directory.glob("*.json")) if directory.is_dir() else []:
            try:
                ledger = load_ledger(path)
            except (OSError, ValueError):
                continue
            rows.append(
                [
                    path.name,
                    ledger.get("run_id", "?"),
                    " ".join(ledger.get("argv", []))[:48] or "-",
                    f"{ledger.get('wall_seconds', 0.0):.2f}",
                ]
            )
        if not rows:
            print(f"no ledgers under {directory} (record one with --ledger auto)")
            return 0
        print(
            render_generic_table(
                ["file", "run id", "argv", "wall(s)"],
                rows,
                title=f"ledgers in {directory}",
            )
        )
        return 0

    exit_code = 0
    for index, path in enumerate(args.ledgers):
        try:
            ledger = load_ledger(path)
        except (OSError, ValueError) as exc:
            print(f"cannot read ledger {path}: {exc}", file=sys.stderr)
            exit_code = 2
            continue
        if args.validate:
            violations = validate_ledger(ledger)
            if violations:
                for violation in violations:
                    print(f"{path}: {violation}", file=sys.stderr)
                exit_code = exit_code or 1
            else:
                print(f"{path}: valid")
            continue
        if index:
            print()
        if args.prometheus:
            print(prometheus_text(ledger), end="")
        else:
            print(render_ledger(ledger))
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.timeline import (
        export_chrome_trace,
        read_event_records,
        validate_chrome_trace,
        write_chrome_trace,
    )

    try:
        records = read_event_records(args.events)
    except OSError as exc:
        print(f"cannot read {args.events}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.events}: no envelope records found", file=sys.stderr)
        return 1
    document = export_chrome_trace(records)
    violations = validate_chrome_trace(document)
    if violations:
        for violation in violations:
            print(f"trace: {violation}", file=sys.stderr)
        return 1
    other = document["otherData"]
    lanes = sum(1 for e in document["traceEvents"] if e.get("ph") == "M")
    path = write_chrome_trace(document, args.out)
    print(
        f"wrote {path} ({other['spans']} spans, {other['events']} events, "
        f"{lanes} lane(s)) — load it at https://ui.perfetto.dev"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    return run_top(
        events=args.events,
        url=args.url,
        interval=args.interval,
        once=args.once,
        frames=args.frames,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    from .engine.registry import algorithm_names
    from .verify import DEFAULT_FAMILIES, run_check

    known = set(algorithm_names())
    unknown = sorted(set(args.algorithm or []) - known)
    if unknown:
        print(
            f"unknown algorithm(s): {', '.join(unknown)} "
            f"(registered: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2
    bad_families = sorted(set(args.family or []) - set(DEFAULT_FAMILIES))
    if bad_families:
        print(
            f"unknown corpus family(s): {', '.join(bad_families)} "
            f"(known: {', '.join(DEFAULT_FAMILIES)})",
            file=sys.stderr,
        )
        return 2
    families = tuple(args.family) if args.family else DEFAULT_FAMILIES
    if args.quick:
        sizes: tuple[int, ...] = (10,)
        seeds: tuple[int, ...] = (0,)
    else:
        sizes = (10, 16)
        seeds = tuple(range(args.seeds))
    report = run_check(
        algorithms=args.algorithm or None,
        families=families,
        sizes=sizes,
        seeds=seeds,
        include_exact=not args.no_exact,
        include_metamorphic=not args.no_metamorphic,
        jobs=args.jobs,
    )
    print(report.render(verbose=args.verbose))
    if args.json:
        _write_text("check report", args.json, json.dumps(report.to_json(), indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        AnalysisConfig,
        default_baseline_path,
        default_config,
        render_json,
        render_text,
        runner,
        to_sarif,
        update_baseline,
        valid_rule_ids,
    )

    if args.root:
        root = Path(args.root)
        if not root.is_dir() or not any(root.rglob("*.py")):
            print(
                f"lint: root {root} is not a directory containing Python modules",
                file=sys.stderr,
            )
            return 2
        config = AnalysisConfig(root=root)
    else:
        config = default_config()
    rule_ids: list[str] = []
    for chunk in args.rule or []:
        rule_ids.extend(part.strip() for part in chunk.split(",") if part.strip())
    if rule_ids:
        unknown = sorted(set(rule_ids) - set(valid_rule_ids()))
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(valid: {', '.join(valid_rule_ids())})",
                file=sys.stderr,
            )
            return 2
        config = replace(config, rules=tuple(rule_ids))
    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()

    if args.update_baseline:
        from .analysis import Baseline

        findings, _, _ = runner.analyze(config)
        baseline = update_baseline(findings, Baseline.load(baseline_path))
        baseline.save(baseline_path)
        todo = sum(1 for e in baseline.entries if e.problem())
        print(f"wrote {baseline_path} ({len(baseline.entries)} entries, {todo} needing justification)")
        return 0

    result = runner.run_analysis(config, baseline_path)
    if args.format == "sarif":
        sarif = to_sarif(
            result.findings,
            result.suppressed_with_justifications(),
            result.rules,
        )
        text = json.dumps(sarif, indent=2)
    elif args.format == "json":
        text = render_json(
            result.findings,
            result.suppressed,
            result.stale,
            result.baseline_problems,
            result.modules_scanned,
        )
    else:
        text = render_text(
            result.findings,
            result.suppressed,
            result.stale,
            result.baseline_problems,
            result.modules_scanned,
        )
    if args.out:
        _write_text("lint report", args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.check and not result.ok:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import make_server

    store = None if args.no_cache else ResultCache(getattr(args, "cache_dir", None))
    api_keys = None
    if args.api_keys:
        try:
            with open(args.api_keys, encoding="utf-8") as stream:
                api_keys = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read API key table {args.api_keys}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(api_keys, dict):
            print(f"{args.api_keys}: expected a JSON object of key -> tenant spec",
                  file=sys.stderr)
            return 2
    server = make_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=store,
        telemetry=Telemetry(getattr(args, "telemetry", None)),
        api_keys=api_keys,
        quiet=not args.verbose,
        default_retries=args.retries,
        max_inflight=args.max_inflight,
        max_graphs=args.max_graphs,
    )
    cache_note = "off" if store is None else str(store.root)
    tenancy = "open (no API keys)" if api_keys is None else f"{len(api_keys)} tenant(s)"
    print(f"serving on {server.url}")
    print(f"workers: {args.workers}  cache: {cache_note}  tenancy: {tenancy}")
    print("endpoints: /v1/health /v1/graphs /v1/jobs /v1/results /metrics "
          "(Ctrl-C stops)")
    try:
        server.serve_forever()
    finally:
        # Runs on Ctrl-C too: stop accepting, drain the worker pool, then
        # let the KeyboardInterrupt propagate to main() for exit code 130.
        server.close()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = ResultCache(getattr(args, "cache_dir", None))
    if args.action == "stats":
        stats = store.stats()
        print(f"root: {stats['root']}")
        print(f"entries: {stats['entries']}")
        print(f"bytes: {stats['bytes']}")
        if stats["entries"]:
            span_seconds = (stats["newest_mtime"] or 0) - (stats["oldest_mtime"] or 0)
            print(f"write span: {span_seconds:.0f}s")
        return 0
    # prune
    if args.max_bytes is None:
        print("cache prune requires --max-bytes", file=sys.stderr)
        return 2
    with _parameters("cache prune"):
        report = store.prune(args.max_bytes)
    print(
        f"removed {report['removed']} entr{'y' if report['removed'] == 1 else 'ies'}, "
        f"freed {report['freed_bytes']} bytes, kept {report['kept_bytes']} bytes"
    )
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .service.client import ServiceClientError
    from .study import (
        build_study_ledger,
        preset_grid,
        render_study,
        run_study_local,
        run_study_remote,
    )

    algorithms = tuple(args.algorithms.split(",")) if args.algorithms else None
    grid = preset_grid(
        args.preset,
        two_n=args.two_n,
        algorithms=algorithms,
        seeds_per_cell=args.seeds,
        graph_seed=args.graph_seed,
        sa_size_factor=args.sa_size_factor,
    )

    def execute():
        if args.remote:
            return run_study_remote(
                grid,
                master_seed=args.seed,
                base_url=args.remote,
                clients=args.clients,
                api_key=args.api_key,
                job_timeout=args.job_timeout,
            )
        return run_study_local(grid, master_seed=args.seed, engine=_make_engine(args))

    # Study owns its ledger (kind "study" + the aggregation payload), so
    # _dispatch's generic --ledger wrapper is skipped for this command.
    try:
        if args.ledger is None:
            outcome = execute()
        else:
            from .obs import run_context, write_ledger

            with run_context(
                jsonl_path=getattr(args, "telemetry", None),
                workload={"command": "study", "preset": grid.name},
            ) as run:
                outcome = execute()
            ledger = build_study_ledger(run, outcome, argv=sys.argv[1:])
            ledger_path = write_ledger(
                ledger, None if args.ledger == "auto" else args.ledger
            )
    except ServiceClientError as exc:
        # Graph setup against a dead/unreachable service fails before any
        # job traffic; surface it instead of reporting an empty study.
        print(f"study: service unreachable: {exc}", file=sys.stderr)
        return 1
    print(render_study(outcome))
    if args.ledger is not None:
        print(f"wrote study ledger {ledger_path}")
    if outcome.failed_requests:
        print(f"study: {outcome.failed_requests} failed request(s)", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bisect",
        description="Graph bisection: KL, SA, and the compaction heuristic (DAC 1989).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph and write an edge list")
    gen.add_argument("model", choices=list(GENERATOR_DEFAULTS))
    gen.add_argument("--vertices", type=int, required=True, help="number of vertices (2n)")
    gen.add_argument("--width", type=int, default=8, help="planted bisection width b")
    gen.add_argument("--degree", type=int, default=3, help="Gbreg regular degree d")
    gen.add_argument("--p", type=float, default=0.002, help="edge probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output edge-list path")
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="bisect a saved graph")
    run.add_argument("graph", help="edge-list path")
    run.add_argument("--algorithm", choices=_GRAPH_ALGORITHMS, default="ckl")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--starts", type=_positive_int, default=1,
        help="independent random starts (best cut wins; paper protocol is 2)",
    )
    run.add_argument("--show-sides", action="store_true")
    run.add_argument(
        "--certify", action="store_true",
        help="also compute bisection-width lower bounds (Stoer-Wagner, spectral)",
    )
    run.add_argument("--save-partition", help="write the resulting partition to this path")
    _add_engine_options(run, cache=False)
    run.set_defaults(func=_cmd_run)

    kway = sub.add_parser("kway", help="k-way partition a saved graph")
    kway.add_argument("graph", help="edge-list path")
    kway.add_argument("--k", type=int, required=True, help="number of parts")
    kway.add_argument("--seed", type=int, default=0)
    kway.add_argument("--save-partition", help="write the resulting partition to this path")
    kway.set_defaults(func=_cmd_kway)

    score = sub.add_parser("score", help="score a saved partition against its graph")
    score.add_argument("graph", help="edge-list path")
    score.add_argument("partition", help="partition file path")
    score.add_argument("--certify", action="store_true")
    score.set_defaults(func=_cmd_score)

    report = sub.add_parser(
        "report", help="run every paper table at REPRO_SCALE into one markdown report"
    )
    report.add_argument("--out", help="output path (default: stdout)")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--kl-only", action="store_true", help="skip SA/CSA")
    _add_engine_options(report)
    report.set_defaults(func=_cmd_report)

    table = sub.add_parser("table", help="regenerate a paper table at REPRO_SCALE")
    table.add_argument("table", choices=sorted(_TABLES))
    table.add_argument("--seed", type=int, default=0)
    table.add_argument(
        "--kl-only", action="store_true", help="skip SA/CSA (much faster)"
    )
    _add_engine_options(table)
    table.set_defaults(func=_cmd_table)

    batch = sub.add_parser(
        "batch", help="run a declarative JSON batch spec through the engine"
    )
    batch.add_argument("spec", help="batch spec path (JSON; see docs/engine.md)")
    batch.add_argument("--out", help="write per-entry results to this JSONL path")
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job wall-clock timeout in seconds",
    )
    batch.add_argument(
        "--retries", type=int, default=0,
        help="default retries per job (each retry gets a fresh derived seed)",
    )
    _add_engine_options(batch)
    batch.set_defaults(func=_cmd_batch)

    info = sub.add_parser(
        "info", help="canonical fingerprint and stats of a saved graph"
    )
    info.add_argument("graph", help="edge-list path")
    info.set_defaults(func=_cmd_info)

    stats = sub.add_parser(
        "stats",
        help="render run ledgers as an ASCII dashboard, or diff two of them",
    )
    stats.add_argument(
        "ledgers", nargs="*",
        help="ledger JSON path(s) to render (none: list the ledger directory)",
    )
    stats.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="counter-level explanation of what changed between two runs",
    )
    stats.add_argument(
        "--validate", action="store_true",
        help="check each ledger against the schema; exit non-zero on violations",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="dump metrics in Prometheus text format instead of the dashboard",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="export a telemetry/span JSONL file as a Chrome trace "
        "(Perfetto-loadable) timeline",
    )
    trace.add_argument("action", choices=["export"])
    trace.add_argument(
        "events",
        help="JSONL file from --telemetry / --ledger runs (spans + engine events)",
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="output trace path (default: trace.json)",
    )
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="live TTY dashboard over a telemetry file or a served /metrics",
    )
    top.add_argument(
        "events", nargs="?", default=None,
        help="telemetry JSONL file a concurrent run is appending to",
    )
    top.add_argument(
        "--url", help="poll this repro-bisect serve base URL instead of a file"
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default: 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen control; CI mode)",
    )
    top.add_argument(
        "--frames", type=_positive_int, default=None,
        help="stop after this many refreshes (default: until Ctrl-C)",
    )
    top.set_defaults(func=_cmd_top)

    check = sub.add_parser(
        "check",
        help="verify every registered algorithm against the invariant, "
        "exact, and metamorphic oracles",
    )
    check.add_argument(
        "--algorithm", action="append",
        help="check only this algorithm (repeatable; default: all registered)",
    )
    check.add_argument(
        "--family", action="append",
        help="corpus family (repeatable; default: all families)",
    )
    check.add_argument(
        "--seeds", type=_positive_int, default=3,
        help="seeds per instance (default: 3)",
    )
    check.add_argument(
        "--quick", action="store_true",
        help="one size, one seed per family (smoke mode)",
    )
    check.add_argument("--json", help="also write the full JSON report here")
    check.add_argument(
        "--no-exact", action="store_true",
        help="skip the brute-force exact-oracle section",
    )
    check.add_argument(
        "--no-metamorphic", action="store_true",
        help="skip the metamorphic-relation section",
    )
    check.add_argument(
        "--jobs", type=_positive_int, default=2,
        help="worker processes for the jobs-equivalence relation (default: 2)",
    )
    check.add_argument(
        "--verbose", action="store_true", help="list every record, not just failures"
    )
    check.set_defaults(func=_cmd_check)

    lint = sub.add_parser(
        "lint",
        help="statically check the source tree against the determinism, "
        "invariant, and concurrency/lifetime ruleset (R001-R016)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--check", action="store_true",
        help="exit non-zero on unsuppressed findings, stale baseline "
        "entries, or missing justifications",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover current findings (new entries "
        "get a TODO justification that --check rejects)",
    )
    lint.add_argument(
        "--baseline",
        help="baseline file (default: the checked-in analysis/baseline.json)",
    )
    lint.add_argument(
        "--root",
        help="package directory to scan (default: the installed repro package)",
    )
    lint.add_argument(
        "--rule", action="append",
        help="run only these rule ids (repeatable and/or comma-separated, "
        "e.g. --rule R002,R013; default: all rules)",
    )
    lint.add_argument("--out", help="write the report here instead of stdout")
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve", help="serve the partitioning engine over HTTP/JSON"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="engine worker processes shared by all tenants (default: 2)",
    )
    serve.add_argument(
        "--api-keys", metavar="PATH",
        help="JSON file mapping API key -> {name, max_inflight, max_graphs}; "
        "omitted = open mode (one shared 'public' tenant)",
    )
    serve.add_argument(
        "--max-inflight", type=_positive_int, default=64,
        help="default per-tenant in-flight job quota (default: 64)",
    )
    serve.add_argument(
        "--max-graphs", type=_positive_int, default=32,
        help="default per-tenant stored-graph quota (default: 32)",
    )
    serve.add_argument(
        "--retries", type=int, default=0,
        help="default per-job retries (each retry derives a fresh seed)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    serve.add_argument(
        "--telemetry",
        help="append engine telemetry events to this JSONL file",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--cache-dir",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-bisect)",
    )
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or bound the content-addressed result cache"
    )
    cache.add_argument("action", choices=["stats", "prune"])
    cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="prune: evict oldest entries until total size fits this budget",
    )
    cache.add_argument(
        "--cache-dir",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-bisect)",
    )
    cache.set_defaults(func=_cmd_cache)

    study = sub.add_parser(
        "study",
        help="ensemble study: cut-size distributions, phase sweeps, tail fits",
    )
    study.add_argument(
        "--preset", choices=["quick", "phase-sweep", "heuristics"], default="quick",
        help="sweep grid: quick (2 cells), phase-sweep (degree sweeps on "
        "Gbreg and Gnp), heuristics (KL/FM/SA/CKL/CSA on one instance)",
    )
    study.add_argument(
        "--seeds", type=_positive_int, default=None,
        help="heuristic seeds per cell (default: the preset's ensemble size)",
    )
    study.add_argument(
        "--two-n", dest="two_n", type=_positive_int, default=None,
        help="override the preset's graph size 2n",
    )
    study.add_argument(
        "--algorithms",
        help="comma-separated registry names overriding the preset's heuristics",
    )
    study.add_argument(
        "--seed", type=int, default=0,
        help="master seed: every cell's run seeds derive from it deterministically",
    )
    study.add_argument(
        "--graph-seed", type=int, default=0,
        help="generator seed for each cell's fixed graph instance",
    )
    study.add_argument(
        "--sa-size-factor", type=_positive_int, default=2,
        help="temperature length multiplier for sa/csa cells",
    )
    study.add_argument(
        "--remote", metavar="URL",
        help="drive a running `repro-bisect serve` at URL instead of the "
        "local engine (doubles as the service load test)",
    )
    study.add_argument(
        "--clients", type=_positive_int, default=8,
        help="worker threads for --remote mode",
    )
    study.add_argument("--api-key", help="service API key for --remote mode")
    study.add_argument(
        "--job-timeout", type=float, default=120.0,
        help="per-job wait timeout in seconds for --remote mode",
    )
    _add_engine_options(study)
    study.set_defaults(func=_cmd_study, study_owns_ledger=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(argv)
    except _InputError as exc:
        print(f"repro-bisect: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Conventional 128+SIGINT exit; the newline keeps the shell prompt
        # off the interrupted command's output line.
        print(file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro-bisect ... | head`).  Point
        # stdout at devnull so the interpreter's exit-time flush doesn't
        # raise a second BrokenPipeError, and exit cleanly.
        import os

        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # stdout is not a real file (tests)
            fd = None
        if fd is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 0


def _dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry = getattr(args, "telemetry", None)
    if telemetry:
        # Telemetry opens its file lazily, mid-run; fail before any work.
        try:
            with open(telemetry, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise _InputError(f"cannot open telemetry file {telemetry}: {exc}") from None
    ledger_target = getattr(args, "ledger", None)
    if getattr(args, "study_owns_ledger", False):
        ledger_target = None  # study builds its own (kind "study") ledger
    profile_target = getattr(args, "profile", None)

    from .obs.profiler import maybe_profile, profiling_enabled

    wants_profile = profile_target is not None or profiling_enabled()
    if ledger_target is None and not wants_profile:
        return args.func(args)

    run = None
    with maybe_profile(force=wants_profile) as profiler:
        if ledger_target is None:
            exit_code = args.func(args)
        else:
            from .obs import run_context

            # The trace JSONL shares the engine telemetry file, so one tail
            # shows both streams correlated by run_id.
            with run_context(
                jsonl_path=getattr(args, "telemetry", None),
                workload={"command": args.command},
            ) as run:
                exit_code = args.func(args)

    if profiler is not None and profile_target is not None:
        path = profiler.write_collapsed(profile_target)
        print(f"wrote profile {path} ({profiler.samples} samples @ {profiler.hz:g}Hz)")
    if ledger_target is not None:
        from .obs import build_ledger, write_ledger

        ledger = build_ledger(
            run, argv=list(argv) if argv is not None else sys.argv[1:]
        )
        if profiler is not None:
            ledger["profile"] = profiler.summary()
        path = write_ledger(ledger, None if ledger_target == "auto" else ledger_target)
        print(f"wrote ledger {path}")
    elif profiler is not None and profile_target is None:
        # REPRO_PROFILE=1 with nowhere to put the profile: don't drop it
        # silently, show the hottest leaves.
        leaves = sorted(
            profiler.leaf_totals().items(), key=lambda item: (-item[1], item[0])
        )
        for label, count in leaves[:10]:
            print(f"profile: {count:6d}  {label}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
