"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload is a closed loop: the next operation starts when the
previous one has finished (the service workload runs two such loops, one
per client thread).  ``setup`` builds the inputs from the seed and runs one
unchecked warm-up operation; ``measure`` runs operations for a given number
of seconds and checks every output with :mod:`perfbench.verify`; ``close``
stops whatever ``setup`` started.  ``use_tracer`` makes the workload start
later subprocesses through ``perfbench/launch.py``, and ``layer_extra``
reports per-layer values that a workload measures outside the tracer.

The program is imported inside ``setup``, so its import time counts as
set-up time.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median, quantiles
from typing import Any

from perfbench.verify import Reference

__all__ = ["Phase", "WORKLOADS", "make_workload"]

ROOT = Path(__file__).resolve().parent.parent

#: The paper's headline instance, Gbreg(2n=5000, b=16, d=3).
PAPER_GRAPH = {"vertices": 5000, "width": 16, "degree": 3}
#: Study cells: Gbreg(500,16,3) and Gnp(500, average degree 2.5), KL only.
STUDY_SIZE, STUDY_SEEDS_PER_CELL, STUDY_JOBS = 500, 50, 2
#: Service workload: CKL on Gbreg(2000,16,3), two client threads.
SERVICE_GRAPH = {"vertices": 2000, "width": 16, "degree": 3}
SERVICE_CLIENTS = 2
#: The service workload times a calibration slice this often while its
#: clients run (the other workloads time one after every operation).
SERVICE_SAMPLE_EVERY_S = 0.2
#: The server keeps every finished job, so its memory grows with requests
#: served, and how many fit in the window depends on the machine's speed.
#: Its peak resident set is therefore read after this many requests.
SERVICE_RSS_AFTER = 100
#: Graph instances per run.  Operations cycle through them, so a run's
#: numbers average over the graph family instead of resting on one draw,
#: whose KL pass count alone moves KL time by several per cent.
INSTANCES = 8
#: How long one operation may take before it counts as failed.
OP_TIMEOUT_S = 60.0
#: Fresh interpreters timed for the ``cli.interpreter_s``/``cli.import_s`` medians.
INTERPRETER_REPEATS = 5


#: A fixed slice of pure-Python work, timed between operations to track
#: how fast this machine runs at the moment: on a shared virtual machine
#: the same slice takes tens of per cent longer in some minutes than in
#: others.  Times are reported in reference seconds, scaled as if the
#: slice took ``REFERENCE_SLICE_S`` (its median on the 2-vCPU container
#: the baselines in README.md were measured on).
CALIBRATION_LOOPS = 50_000
REFERENCE_SLICE_S = 0.0035


def calibrate() -> float:
    """Wall seconds for the fixed calibration slice."""
    began = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - began


@dataclass
class Phase:
    """What one measuring phase saw.

    ``latencies`` and ``starts`` hold one wall time and start time per
    operation; ``spans`` the intervals that make up the measuring window;
    ``samples`` the ``(time, seconds)`` of each calibration slice; ``cuts``
    one cut per checked result that passed (a study pass checks many
    results); ``failures`` one reason per result that did not.
    """

    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)
    samples: list[tuple[float, float]] = field(default_factory=list)
    results: int = 0
    cuts: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    window_s: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.cuts) + len(self.failures)

    def record(self, reason: str | None, cut: Any) -> None:
        """Count one checked result: ``reason`` is ``None`` when it passed."""
        if reason is None:
            self.cuts.append(cut)
        else:
            self.failures.append(reason)

    def add_op(self, began: float, elapsed: float) -> None:
        self.starts.append(began)
        self.latencies.append(elapsed)

    def sample(self) -> None:
        """Time one calibration slice now."""
        self.samples.append((time.perf_counter(), calibrate()))

    def speed(self, start: float, length: float) -> float:
        """The factor that turns wall seconds spent in ``[start, start + length]``
        into reference seconds: from the slices timed inside the interval, or
        else from the last slice before it and the first after it."""
        end = start + length
        near = [s for t, s in self.samples if start <= t <= end]
        if not near:
            near = [s for t, s in self.samples if t < start][-1:]
            near += [s for t, s in self.samples if t > end][:1]
        return REFERENCE_SLICE_S * len(near) / sum(near)

    def normalized_latencies(self) -> list[float]:
        return [lat * self.speed(t, lat) for t, lat in zip(self.starts, self.latencies)]

    def normalized_window(self) -> float:
        return sum(length * self.speed(t, length) for t, length in self.spans)


class Workload:
    """Base class: a seeded input stream plus the set-up/measure/close cycle."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.graph_seeds = [self.rng.randrange(1, 2**31) for _ in range(INSTANCES)]
        self._setups = 0
        self._ops = 0

    def next_seed(self) -> int:
        return self.rng.randrange(2**31)

    def next_instance(self) -> int:
        """Index of the graph instance the next operation runs on."""
        self._ops += 1
        return self._ops % INSTANCES

    def fresh_dir(self, stem: str) -> Path:
        """A new, empty directory under the run's working directory."""
        self._setups += 1
        path = self.workdir / f"{stem}-{self._setups}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Phase:
        raise NotImplementedError

    def use_tracer(self) -> None:
        """Start later subprocesses through the tracing launcher."""

    def layer_extra(self, plain: Phase, traced: Phase) -> dict[str, float]:
        """Per-layer values measured outside the tracer (see :mod:`perfbench.layers`)."""
        return {}

    def close(self) -> None:
        pass


def _until(seconds: float, phase: Phase, step) -> Phase:
    """Run ``step(phase)`` until its operations add up to ``seconds``.

    Each step runs and records one operation; checking its output is left
    out of the window, so only the program's work is measured.  A
    calibration slice follows every operation.
    """
    while phase.window_s < seconds:
        step(phase)
        span = (phase.starts[-1], phase.latencies[-1])
        phase.spans.append(span)
        phase.window_s += span[1]
        phase.sample()
    return phase


# -- in-process bisection -------------------------------------------------------------


def paper_graphs(seeds: list[int], spec: dict) -> list:
    """One Gbreg graph per seed."""
    from repro.graphs.generators import gbreg

    return [gbreg(spec["vertices"], spec["width"], spec["degree"], rng=s).graph for s in seeds]


class Bisect(Workload):
    """One library bisector called in a loop on Gbreg(5000,16,3) instances."""

    algorithm = ""

    def setup(self) -> None:
        import repro
        from repro.graphs.csr import csr_view
        from repro.graphs.generators import gbreg

        self.bisect = self._bisector(repro)
        self.graphs = paper_graphs(self.graph_seeds, PAPER_GRAPH)
        self.references = [Reference.of_graph(graph) for graph in self.graphs]
        for graph in self.graphs:
            csr_view(graph)  # compiled once per graph by the first bisection anyway
        self.bisect(gbreg(200, 4, 3, rng=self.graph_seeds[0]).graph, 1)

    def _bisector(self, repro):
        if self.algorithm == "kl":
            return lambda graph, seed: repro.kernighan_lin(graph, rng=seed)
        if self.algorithm == "ckl":
            return lambda graph, seed: repro.ckl(graph, rng=seed)
        return lambda graph, seed: repro.simulated_annealing(graph, rng=seed, record_trace=False)

    def measure(self, seconds: float) -> Phase:
        def step(phase: Phase) -> None:
            index, seed = self.next_instance(), self.next_seed()
            began = time.perf_counter()
            try:
                result = self.bisect(self.graphs[index], seed)
            except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
                phase.add_op(began, time.perf_counter() - began)
                phase.record(f"{type(exc).__name__}: {exc}", None)
                return
            phase.add_op(began, time.perf_counter() - began)
            phase.results += 1
            problem = self.references[index].check(result.bisection.side(0), result.cut)
            phase.record(problem, result.cut)

        return _until(seconds, Phase(), step)


class KL(Bisect):
    name, algorithm = "kl-gbreg5000", "kl"


class CKL(Bisect):
    name, algorithm = "ckl-gbreg5000", "ckl"

    #: KL and SA runs timed on the CKL graphs for the paper's speed claims.
    PAPER_KL_RUNS, PAPER_SA_RUNS = INSTANCES, 1

    def layer_extra(self, plain: Phase, traced: Phase) -> dict[str, float]:
        """The paper's claims on these graphs: KL and SA against untraced CKL."""
        import repro

        def timed(bisect, count: int) -> Phase:
            phase = Phase()
            phase.sample()
            for _ in range(count):
                graph = self.graphs[self.next_instance()]
                began = time.perf_counter()
                phase.cuts.append(bisect(graph, self.next_seed()).cut)
                phase.add_op(began, time.perf_counter() - began)
                phase.sample()
            return phase

        kl = timed(lambda g, s: repro.kernighan_lin(g, rng=s), self.PAPER_KL_RUNS)
        sa = timed(
            lambda g, s: repro.simulated_annealing(g, rng=s, record_trace=False),
            self.PAPER_SA_RUNS,
        )
        ckl_p50 = median(plain.normalized_latencies())
        return {
            "paper.kl_over_ckl": median(kl.normalized_latencies()) / ckl_p50,
            "paper.sa_over_ckl": median(sa.normalized_latencies()) / ckl_p50,
            "paper.ckl_cut_gain": 1 - mean(plain.cuts) / mean(kl.cuts),
        }


class SA(Bisect):
    name, algorithm = "sa-gbreg5000", "sa"


# -- study ensembles ------------------------------------------------------------------


class Study(Workload):
    """``run_study_local`` passes over two KL cells on a 2-worker engine.

    Each pass is a new study: a new master seed and the next graph
    instance, so every job runs and is written to the result cache.
    """

    name = "study-kl500-jobs2"

    def setup(self) -> None:
        from repro.engine import AlgorithmSpec, Engine, ResultCache
        from repro.study import runner
        from repro.study.grid import StudyCell, StudyGrid

        class KeepResults(Engine):
            """An engine that keeps its last batch for the checker."""

            def run(self, jobs, graphs):
                results = super().run(jobs, graphs)
                self.last = (graphs, results)
                return results

        def grid(graph_seed: int, seeds_per_cell: int) -> StudyGrid:
            spec = AlgorithmSpec.make("kl")
            cells = (
                StudyCell("gbreg", STUDY_SIZE, 3.0, 16, spec, graph_seed=graph_seed),
                StudyCell("gnp", STUDY_SIZE, 2.5, None, spec, graph_seed=graph_seed),
            )
            return StudyGrid("perfbench", cells, seeds_per_cell)

        self.grid = grid
        self.runner = runner  # looked up per call, so a tracer can wrap it
        self.engine = KeepResults(jobs=STUDY_JOBS, cache=ResultCache(self.fresh_dir("cache")))
        self.references: dict[str, Reference] = {}
        self.runner.run_study_local(grid(self.graph_seeds[0], 4), self.next_seed(), self.engine)

    def _check(self, phase: Phase) -> None:
        graphs, results = self.engine.last
        for result in results:
            phase.results += 1
            if not result.ok:
                phase.record(f"job {result.job_id} failed: {result.error}", None)
                continue
            reference = self.references.get(result.graph_key)
            if reference is None:
                reference = Reference.of_graph(graphs[result.graph_key])
                self.references[result.graph_key] = reference
            phase.record(reference.check_tokens(result.side0, result.cut), result.cut)

    def measure(self, seconds: float) -> Phase:
        def step(phase: Phase) -> None:
            grid = self.grid(self.graph_seeds[self.next_instance()], STUDY_SEEDS_PER_CELL)
            master = self.next_seed()
            began = time.perf_counter()
            try:
                self.runner.run_study_local(grid, master, self.engine)
            except Exception as exc:  # noqa: BLE001 - a raising pass counts as failed
                phase.add_op(began, time.perf_counter() - began)
                phase.record(f"{type(exc).__name__}: {exc}", None)
                return
            phase.add_op(began, time.perf_counter() - began)
            self._check(phase)

        return _until(seconds, Phase(), step)


# -- subprocesses ---------------------------------------------------------------------


def program_env(workdir: Path) -> dict[str, str]:
    """The environment for program subprocesses: checkout sources, and
    caches and temp files kept under the run's working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    env["TMPDIR"] = str(workdir)
    return env


def program_command(traced: bool, trace_out: Path, argv: list[str]) -> list[str]:
    """``repro-bisect <argv>``, through the tracing launcher when ``traced``."""
    if traced:
        launcher = str(ROOT / "perfbench" / "launch.py")
        return [sys.executable, launcher, "--trace-out", str(trace_out), "--", *argv]
    return [sys.executable, "-m", "repro.cli", *argv]


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set so far (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def interpreter_seconds(code: str, env: dict[str, str]) -> float:
    """Median wall time of ``python -c code`` over fresh interpreters."""
    times = []
    for _ in range(INTERPRETER_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - began)
    return median(times)


def cli_start_times(env: dict[str, str]) -> dict[str, float]:
    """The ``cli`` layer: a bare interpreter, and ``import repro.cli`` on top."""
    bare = interpreter_seconds("pass", env)
    return {
        "cli.interpreter_s": bare,
        "cli.import_s": interpreter_seconds("import repro.cli", env) - bare,
    }


class CliRuns(Workload):
    """``repro-bisect run`` on saved Gbreg(5000,16,3) edge files.

    Each run is CKL, best of 2 starts on 2 worker processes, saving the
    partition; the saved file and the printed cut are checked.
    """

    name = "cli-ckl-gbreg5000"
    _CUT = re.compile(r"\bcut=(\d+)")

    def setup(self) -> None:
        from repro.graphs.generators import gbreg
        from repro.graphs.io import write_edge_list

        self.traced = False
        self.runs = 0
        self.dir = self.fresh_dir("cli")
        self.env = program_env(self.workdir)
        self.graph_files, self.references = [], []
        for index, graph in enumerate(paper_graphs(self.graph_seeds, PAPER_GRAPH)):
            path = self.dir / f"graph-{index}.edges"
            write_edge_list(graph, path)
            self.graph_files.append(path)
            self.references.append(Reference.of_graph(graph))
        small = gbreg(200, 4, 3, rng=self.graph_seeds[0]).graph
        small_file = self.dir / "small.edges"
        write_edge_list(small, small_file)
        self._run(small_file, Reference.of_graph(small), 1, Phase())

    def _run(self, graph_file: Path, reference: Reference, seed: int, phase: Phase) -> None:
        """One CLI run, recorded into ``phase``."""
        self.runs += 1
        partition = self.dir / f"partition-{self.runs}.txt"
        argv = [
            "run", str(graph_file), "--algorithm", "ckl", "--seed", str(seed),
            "--starts", "2", "--jobs", "2", "--save-partition", str(partition),
        ]
        command = program_command(self.traced, self.dir / f"trace-{self.runs}.json", argv)
        began = time.perf_counter()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = None
        phase.add_op(began, time.perf_counter() - began)
        phase.results += 1
        match = self._CUT.search(proc.stdout) if proc is not None else None
        if proc is None:
            phase.record(f"timed out after {OP_TIMEOUT_S:g}s", None)
        elif proc.returncode != 0:
            phase.record(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}", None)
        elif match is None:
            phase.record("no cut= in the run's output", None)
        else:
            cut = int(match.group(1))
            try:
                phase.record(reference.check_partition_file(partition, cut), cut)
            except OSError as exc:
                phase.record(f"cannot read the saved partition: {exc}", None)
        partition.unlink(missing_ok=True)

    def measure(self, seconds: float) -> Phase:
        def step(phase: Phase) -> None:
            index = self.next_instance()
            self._run(self.graph_files[index], self.references[index], self.next_seed(), phase)

        return _until(seconds, Phase(), step)

    def use_tracer(self) -> None:
        self.traced = True

    def layer_extra(self, plain: Phase, traced: Phase) -> dict[str, float]:
        return cli_start_times(self.env)


class Service(Workload):
    """Round-trips against ``repro-bisect serve --workers 2``.

    Two client threads each loop submit -> ``ServiceClient.wait`` -> result
    fetch, CKL on uploaded Gbreg(2000,16,3) generator specs, one new seed
    per request.  The traced phase runs against a second server,
    started through the tracing launcher, without a warm-up request.
    """

    name = "service-ckl2000"

    def setup(self) -> None:
        from repro.service.client import ServiceClient, ServiceClientError
        from repro.service.state import graph_from_generator_spec

        self.client_class, self.client_error = ServiceClient, ServiceClientError
        self.env = dict(program_env(self.workdir), PYTHONUNBUFFERED="1")
        self.specs = [{**SERVICE_GRAPH, "seed": seed} for seed in self.graph_seeds]
        self.references = [
            Reference.of_graph(graph_from_generator_spec("gbreg", spec)) for spec in self.specs
        ]
        self._start(traced=False)
        self._request(ServiceClient(self.url, timeout=OP_TIMEOUT_S), 0, self.next_seed(), Phase())

    def _start(self, traced: bool) -> None:
        """Boot a server on an ephemeral port with a fresh cache; upload the graph."""
        run_dir = self.fresh_dir("service")
        argv = [
            "serve", "--port", "0", "--workers", "2",
            "--cache-dir", str(run_dir / "cache"),
        ]
        log_path = run_dir / "server.log"
        with open(log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                program_command(traced, run_dir / "trace-server.json", argv),
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 30.0
        while True:
            match = re.search(r"serving on (\S+)", log_path.read_text(encoding="utf-8"))
            if match:
                break
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {log_path.read_text(encoding='utf-8')}")
            time.sleep(0.02)
        self.url = match.group(1)
        client = self.client_class(self.url)
        self.graph_ids = [client.generate_graph("gbreg", **spec)["id"] for spec in self.specs]

    def _request(self, client, index: int, seed: int, phase: Phase) -> None:
        """One submit -> wait -> fetch round-trip on graph ``index``."""
        began = time.perf_counter()
        try:
            record = client.submit(self.graph_ids[index], "ckl", seeds=[seed])[0]
            status = client.wait(record["id"], timeout=OP_TIMEOUT_S)
            payload = client.result(status["cache_key"])
        except (self.client_error, TimeoutError, LookupError, TypeError) as exc:
            phase.add_op(began, time.perf_counter() - began)
            phase.record(f"{type(exc).__name__}: {exc}", None)
            return
        elapsed = time.perf_counter() - began
        phase.add_op(began, elapsed)
        phase.results += 1
        phase.extra.setdefault("outcomes", []).append((elapsed, index, status, payload))

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client_loop() -> None:
            client = self.client_class(self.url, timeout=OP_TIMEOUT_S)
            while time.perf_counter() < deadline:
                with lock:
                    index, seed = self.next_instance(), self.next_seed()
                local = Phase()
                self._request(client, index, seed, local)
                with lock:
                    phase.latencies += local.latencies
                    phase.starts += local.starts
                    phase.results += local.results
                    phase.failures += local.failures
                    phase.extra.setdefault("outcomes", []).extend(local.extra.get("outcomes", []))
                    if phase.results == SERVICE_RSS_AFTER:
                        phase.extra["subprocess_rss_mb"] = peak_rss_mb(self.server.pid)

        phase.sample()
        began = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            time.sleep(SERVICE_SAMPLE_EVERY_S)
            phase.sample()
        for thread in threads:
            thread.join()
        phase.window_s = time.perf_counter() - began
        phase.spans.append((began, phase.window_s))
        for _, index, status, payload in phase.extra.get("outcomes", []):
            phase.record(self._check(index, status, payload), payload.get("cut"))
        return phase

    def _check(self, index: int, status: dict, payload: dict) -> str | None:
        result = status.get("result") or {}
        if status.get("state") != "done" or result.get("status") != "ok":
            return f"job {status.get('id')} ended {status.get('state')}: {result.get('error')}"
        if result.get("cut") != payload.get("cut"):
            return f"status cut {result.get('cut')} != stored cut {payload.get('cut')}"
        return self.references[index].check_tokens(payload.get("side0", ()), payload.get("cut"))

    def use_tracer(self) -> None:
        self.close()
        self._start(traced=True)

    def layer_extra(self, plain: Phase, traced: Phase) -> dict[str, float]:
        outcomes = traced.extra.get("outcomes", [])
        jobs = [status["result"]["seconds"] for _, _, status, _ in outcomes]
        queues = [status.get("queue_seconds", 0.0) for _, _, status, _ in outcomes]
        http = [
            latency - queue - job
            for (latency, _, _, _), queue, job in zip(outcomes, queues, jobs)
        ]
        latencies = traced.latencies
        return {
            **cli_start_times(self.env),
            "service.request_p90_s": quantiles(latencies, n=10)[-1] if len(latencies) > 1 else 0.0,
            "service.job_p50_s": median(jobs) if jobs else 0.0,
            "service.queue_p50_s": median(queues) if queues else 0.0,
            "service.http_p50_s": median(http) if http else 0.0,
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        self.server = None
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (KL, CKL, SA, Study, CliRuns, Service)
}


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    return WORKLOADS[name](seed, workdir)
