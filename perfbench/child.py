"""One workload in a fresh interpreter: set up, measure, report.

    python perfbench/child.py --workload W --seed N --seconds S --trace 0|1
        --role setup|measure --t0 T --workdir DIR --out FILE

``run.py`` starts this script and passes ``--t0``, its ``time.monotonic()``
just before the start, so set-up time includes interpreter start-up.
Times are reported both as wall seconds and in reference seconds (see
``perfbench.workloads.calibrate``).
``--role setup`` stops after set-up; ``--role measure`` then runs the
untraced phase and, with ``--trace 1``, a traced phase of the same length.
FILE receives one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import PROBES, layer_metrics  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_SLICE_S,
    Phase,
    calibrate,
    make_workload,
)

#: Failure reasons kept in the report, of however many there were.
KEEP_FAILURES = 5
#: Calibration slices timed right after set-up, to normalize set-up time.
SETUP_SLICES = 5


def _queue_wait() -> dict | None:
    from repro.obs import REGISTRY

    return REGISTRY.snapshot()["histograms"].get("engine_queue_wait_seconds")


def _add_counts(total: dict | None, histogram: dict | None, sign: int = 1) -> dict | None:
    """Add (or with ``sign=-1`` subtract) a histogram snapshot's counts."""
    if histogram is None:
        return total
    if total is None:
        return {"buckets": histogram["buckets"], "counts": [sign * c for c in histogram["counts"]]}
    total["counts"] = [a + sign * b for a, b in zip(total["counts"], histogram["counts"])]
    return total


def summarize(phase: Phase) -> dict:
    return {
        "latencies": phase.latencies,
        "normalized": phase.normalized_latencies(),
        "results": phase.results,
        "window_s": phase.window_s,
        "normalized_window_s": phase.normalized_window(),
        "slices": [seconds for _, seconds in phase.samples],
        "cuts": phase.cuts,
        "failed": len(phase.failures),
        "failures": phase.failures[:KEEP_FAILURES],
    }


def traced_phase(workload, seconds: float, plain: Phase) -> tuple[Phase, dict]:
    """Measure again under the tracer; returns the phase and per-layer metrics."""
    from repro.obs import histogram_quantile

    workload.use_tracer()
    before = set(workload.workdir.rglob("trace-*.json"))
    waits = _add_counts(None, _queue_wait(), -1)
    with Tracer(PROBES) as tracer:
        traced = workload.measure(seconds)
    waits = _add_counts(waits, _queue_wait())
    extra = workload.layer_extra(plain, traced)
    workload.close()  # traced servers write their trace on shutdown
    for path in sorted(set(workload.workdir.rglob("trace-*.json")) - before):
        dump = json.loads(path.read_text(encoding="utf-8"))
        tracer.merge(dump["trace"])
        waits = _add_counts(waits, dump["queue_wait"])
    if waits is not None:
        extra["engine.queue_wait_p50_s"] = (
            histogram_quantile(waits["buckets"], waits["counts"], 0.5) or 0.0
        )
    if plain.cuts:
        extra["quality.cut_mean"] = sum(plain.cuts) / len(plain.cuts)
    extra["obs.trace_overhead"] = (
        median(traced.normalized_latencies()) / median(plain.normalized_latencies()) - 1
    )
    speed = traced.normalized_window() / traced.window_s
    return traced, layer_metrics(tracer.snapshot(), len(traced.latencies), extra, speed)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.workdir)
    report: dict = {}
    try:
        workload.setup()
        setup_s = time.monotonic() - args.t0
        slices = [calibrate() for _ in range(SETUP_SLICES)]
        report["setup_wall_s"] = setup_s
        report["setup_s"] = setup_s * REFERENCE_SLICE_S / median(slices)
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported repro from {repro.__file__}, not this checkout")
        if args.role == "measure":
            plain = workload.measure(args.seconds)
            report["plain"] = summarize(plain)
            if args.trace:
                traced, layers = traced_phase(workload, args.seconds, plain)
                report["traced"] = summarize(traced)
                report["layers"] = layers
    finally:
        workload.close()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    waited = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # A workload whose subprocess grows with the work done reports that
    # subprocess's peak at a fixed amount of work instead.
    if args.role == "measure":
        waited = plain.extra.get("subprocess_rss_mb", waited)
    report["peak_rss_mb"] = max(own, waited)
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
