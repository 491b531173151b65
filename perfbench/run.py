"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]

Run it from the root of a checkout.  The workload runs in fresh child
interpreters (``perfbench/child.py``): set-up is done ``SETUPS`` times and
its median is ``setup_s``; the last child goes on to measure for
``--seconds``.  With ``--trace 1`` a single child measures, then measures a
second, traced phase, and the result carries the per-layer metrics instead
of the end-to-end ones.  Every metric is printed with its name and unit; the last
line of standard output is the JSON result.  ``--out FILE`` appends the
full record (samples, environment, both metric sets) as one JSON line,
which ``perfbench/compare.py`` reads.

Temporary files, result caches and the program's temp directory live in
``.perfbench/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import calibrate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Fresh interpreters that set the workload up; the last one also measures.
SETUPS = 3
#: Every child of one run must finish within this many seconds in total.
RUN_BUDGET_S = 170.0
#: Calibration slices timed for the environment record.
CALIBRATION_SLICES = 21


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` in the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode_cache": not sys.dont_write_bytecode,
        "commit": git_commit(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        # The calibration slice's median time here, for reading results across machines.
        "calibration_s": median(calibrate() for _ in range(CALIBRATION_SLICES)),
    }


def run_child(args, role: str, workdir: Path, deadline: float) -> dict:
    """One child interpreter; returns its report or raises on failure."""
    child_dir = workdir / f"child-{len(list(workdir.iterdir()))}"
    child_dir.mkdir()
    out = child_dir / "report.json"
    t0 = time.monotonic()
    command = [
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--t0", repr(t0), "--workdir", str(child_dir), "--out", str(out),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(setups: list[float], report: dict) -> dict[str, float]:
    plain = report["plain"]
    return {
        "setup_s": median(setups),
        "latency_p50_s": median(plain["normalized"]),
        "results_per_s": plain["results"] / plain["normalized_window_s"],
        "cut_p50": float(median(plain["cuts"])) if plain["cuts"] else 0.0,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this JSONL file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # A traced run reports no setup_s, so it sets up only in the measuring child.
    extra_setups = 0 if args.trace else SETUPS - 1
    try:
        children = [run_child(args, "setup", workdir, deadline) for _ in range(extra_setups)]
        report = run_child(args, "measure", workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    children.append(report)
    setups = [child["setup_s"] for child in children]

    phases = [report["plain"]] + ([report["traced"]] if args.trace else [])
    attempted = sum(len(p["cuts"]) + p["failed"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    values = report["layers"] if args.trace else end_to_end(setups, report)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, metric in metrics.items():
        print(f"{args.workload}  {name:32s} {metric['value']:.6g} {metric['unit']}")
    plain = report["plain"]
    print(
        f"{args.workload}  wall seconds: latency p50 {median(plain['latencies']):.6g} s, "
        f"{plain['results'] / plain['window_s']:.6g} results/s, "
        f"set-up {median(child['setup_wall_s'] for child in children):.6g} s"
    )
    for phase in phases:
        for reason in phase["failures"]:
            print(f"{args.workload}  failed: {reason}")
    env = environment()
    print(f"{args.workload}  env {json.dumps(env, sort_keys=True)}")
    if args.out is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setups": setups, "env": env, "metrics": metrics,
            "attempted": attempted, "failed": failed, "report": report,
        }
        with open(args.out, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
