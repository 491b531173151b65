"""The traced functions, and the per-layer metrics derived from a trace.

Each probe names a public function of one layer of the program.  The
layers follow the package layout: ``graphs/`` (parse, CSR compile,
fingerprint, shared-memory export), ``core/`` (matching, contraction,
projection and the CKL pipeline around them), ``partition/`` (the KL and
SA refiners), ``engine/`` (batch runs and the result cache), ``study/``
and ``service/`` (the client side of a round-trip).

Times are self times: a layer's time excludes the wrapped calls nested in
it, so the layers of one operation add up.  Every per-layer value is per
operation of the workload.  A value of 0 means the workload does not
reach that layer.
"""

from __future__ import annotations

from perfbench.tracer import Probe

__all__ = ["MEASURED_ELSEWHERE", "PROBES", "layer_metrics"]


def _coarse_or_fine(stem: str):
    """Name a bisector call by the graph it runs on.

    Inside the compaction pipeline, the call without a starting bisection
    bisects the contracted graph G'; every other call runs on the graph
    the user passed.
    """

    def classify(args: tuple, kwargs: dict, active: tuple) -> str:
        coarse = "core.pipeline" in active and kwargs.get("init") is None and len(args) < 2
        return f"{stem}_coarse" if coarse else f"{stem}_fine"

    return classify


def _kl_counts(args, kwargs, result, elapsed) -> dict:
    return {"kl_passes": result.passes, "kl_swaps": result.swaps}


def _sa_counts(args, kwargs, result, elapsed) -> dict:
    return {
        "sa_moves_attempted": result.moves_attempted,
        "sa_moves_accepted": result.moves_accepted,
    }


def _engine_counts(args, kwargs, result, elapsed) -> dict:
    engine = args[0]
    fresh = [r for r in result if not r.from_cache]
    busy = sum(r.seconds for r in fresh)
    workers = max(1, min(engine.jobs, len(fresh)))
    return {
        "engine_busy_s": busy,
        "engine_capacity_s": elapsed * workers,
        "engine_overhead_s": elapsed - busy / workers,
    }


PROBES = [
    Probe("repro.graphs.io:read_edge_list", "graphs.read_edge_list"),
    Probe("repro.graphs.csr:csr_view", "graphs.csr_view"),
    Probe("repro.graphs.graph:graph_fingerprint", "graphs.fingerprint"),
    Probe("repro.graphs.shm:SharedGraphSegment.create", "graphs.shm_export"),
    Probe("repro.core.matching:random_maximal_matching", "core.match"),
    Probe("repro.core.compaction:compact", "core.compact"),
    Probe("repro.core.compaction:Compaction.project", "core.project"),
    Probe("repro.core.pipeline:compacted_bisection", "core.pipeline"),
    Probe(
        "repro.partition.kl:kernighan_lin", "partition.kl",
        classify=_coarse_or_fine("partition.kl"), count=_kl_counts,
    ),
    Probe(
        "repro.partition.annealing.sa:simulated_annealing", "partition.sa",
        count=_sa_counts,
    ),
    Probe("repro.engine.executor:Engine.run", "engine.run", count=_engine_counts),
    Probe("repro.engine.cache:ResultCache.get", "engine.cache_get"),
    Probe("repro.engine.cache:ResultCache.put", "engine.cache_put"),
    Probe("repro.study.runner:run_study_local", "study.run"),
    Probe("repro.service.client:ServiceClient.job", "service.poll"),
]

#: Per-layer metrics measured outside the tracer, by the workload or the
#: child (see :func:`layer_metrics`); every other one is derived from a trace.
MEASURED_ELSEWHERE = (
    "cli.interpreter_s",
    "cli.import_s",
    "engine.queue_wait_p50_s",
    "service.request_p90_s",
    "service.job_p50_s",
    "service.queue_p50_s",
    "service.http_p50_s",
    "quality.cut_mean",
    "paper.kl_over_ckl",
    "paper.sa_over_ckl",
    "paper.ckl_cut_gain",
    "obs.trace_overhead",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, ops: int, extra: dict, speed: float = 1.0) -> dict[str, float]:
    """Per-operation layer metrics from a tracer snapshot.

    ``ops`` is the number of workload operations the trace covers.
    ``extra`` carries values measured outside the tracer (interpreter and
    import times, service job timings, queue-wait median, paper ratios,
    trace overhead); missing ones read 0.  ``speed`` converts the phase's
    wall seconds to reference seconds: every ``*_s`` metric is multiplied
    by it and every ``*_per_s`` rate divided by it.
    """
    self_time = trace.get("self", {})
    total = trace.get("total", {})
    calls = trace.get("calls", {})
    edges = trace.get("edges", {})
    counts = trace.get("counts", {})

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    kl_self = self_time.get("partition.kl_coarse", 0.0) + self_time.get("partition.kl_fine", 0.0)
    sa_self = self_time.get("partition.sa", 0.0)
    coarse_compile = edges.get("graphs.csr_view<partition.kl_coarse", 0.0)
    core_work = sum(
        total.get(name, 0.0) for name in ("core.match", "core.compact", "core.project")
    )
    values = {
        "graphs.read_edge_list_s": per_op(self_time.get("graphs.read_edge_list", 0.0)),
        "graphs.csr_view_s": per_op(self_time.get("graphs.csr_view", 0.0)),
        "graphs.csr_view_calls": per_op(calls.get("graphs.csr_view", 0)),
        "graphs.fingerprint_s": per_op(self_time.get("graphs.fingerprint", 0.0)),
        "graphs.shm_export_s": per_op(self_time.get("graphs.shm_export", 0.0)),
        "core.match_s": per_op(self_time.get("core.match", 0.0)),
        "core.compact_s": per_op(self_time.get("core.compact", 0.0)),
        "core.project_s": per_op(self_time.get("core.project", 0.0)),
        "core.unattributed_s": per_op(self_time.get("core.pipeline", 0.0)),
        "core.ckl_share": _ratio(core_work + coarse_compile, total.get("core.pipeline", 0.0)),
        "partition.kl_coarse_s": per_op(self_time.get("partition.kl_coarse", 0.0)),
        "partition.kl_fine_s": per_op(self_time.get("partition.kl_fine", 0.0)),
        "partition.sa_s": per_op(sa_self),
        "partition.kl_passes": per_op(counts.get("kl_passes", 0)),
        "partition.kl_swaps": per_op(counts.get("kl_swaps", 0)),
        "partition.sa_moves_attempted": per_op(counts.get("sa_moves_attempted", 0)),
        "partition.sa_accept_ratio": _ratio(
            counts.get("sa_moves_accepted", 0), counts.get("sa_moves_attempted", 0)
        ),
        "partition.kl_swaps_per_s": _ratio(counts.get("kl_swaps", 0), kl_self),
        "partition.sa_moves_per_s": _ratio(counts.get("sa_moves_attempted", 0), sa_self),
        "engine.run_s": per_op(total.get("engine.run", 0.0)),
        "engine.busy_s": per_op(counts.get("engine_busy_s", 0.0)),
        "engine.utilization": _ratio(
            counts.get("engine_busy_s", 0.0), counts.get("engine_capacity_s", 0.0)
        ),
        "engine.overhead_s": per_op(counts.get("engine_overhead_s", 0.0)),
        "engine.cache_get_s": per_op(self_time.get("engine.cache_get", 0.0)),
        "engine.cache_put_s": per_op(self_time.get("engine.cache_put", 0.0)),
        "study.overhead_s": per_op(
            max(0.0, total.get("study.run", 0.0) - total.get("engine.run", 0.0))
            if "study.run" in total else 0.0
        ),
        "service.polls_per_request": per_op(calls.get("service.poll", 0)),
    }
    for name in MEASURED_ELSEWHERE:
        values[name] = float(extra.get(name, 0.0))
    for name, value in values.items():
        if name.endswith("_per_s"):
            values[name] = value / speed
        elif name.endswith("_s"):
            values[name] = value * speed
    return values
