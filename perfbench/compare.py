"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl B.jsonl

A and B are files written by ``run.py --out`` (one JSON record per run,
one run per workload and seed); A is the base, B the change.  Runs of the
two sides are paired by seed.  For every workload and end-to-end metric
the script prints each side's median and quartiles and a verdict:

* ``unresolved`` when either side's quartile spread, as a share of its
  median, is wider than the metric's bound, unless every run of B reads
  better than every run of A (then ``better``);
* ``worse`` when B's median is worse than A's by more than the bound;
* ``better`` when B's median is better by more than A's quartile spread
  and B wins at least nine in ten runs paired by seed;
* ``unchanged`` otherwise.

Per-layer metrics from traced runs are printed with their medians and no
verdict.  The exit code is 1 when any metric is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def series(records: list[dict], trace: int) -> dict[tuple[str, str], dict[int, float]]:
    """``(workload, metric) -> {seed: value}`` over runs with this trace flag."""
    table: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    for record in records:
        if record["trace"] != trace:
            continue
        for name, metric in record["metrics"].items():
            table[(record["workload"], name)][record["seed"]] = metric["value"]
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    a, b = list(base.values()), list(change.values())
    sign = 1 if better == "lower" else -1  # positive deltas are worse

    def improves(x: float, y: float) -> bool:
        return sign * (y - x) < 0

    if max(spread(a), spread(b)) > bound:
        return "better" if all(improves(x, y) for x in a for y in b) else "unresolved"
    med_a, med_b = median(a), median(b)
    worse_share = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse_share > bound:
        return "worse"
    seeds = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in seeds] or list(zip(a, b))
    wins = sum(improves(x, y) for x, y in pairs)  # a tie counts for neither side
    q1, _, q3 = quartiles(a)
    if sign * (med_b - med_a) < 0 and abs(med_b - med_a) > q3 - q1 and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_records, change_records = load(argv[0]), load(argv[1])
    worse = 0
    base, change = series(base_records, 0), series(change_records, 0)
    header = f"{'workload':20s} {'metric':16s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s}  verdict"
    print(header)
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            cells = []
            for side in (base[key], change[key]):
                q1, q2, q3 = quartiles(list(side.values()))
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            word = verdict(base[key], change[key], metric["better"], metric["bound"])
            worse += word == "worse"
            print(f"{workload:20s} {metric['name']:16s} {cells[0]:>32s} {cells[1]:>32s}  {word}")
    for label, records in (("A", base_records), ("B", change_records)):
        failed = defaultdict(int)
        for record in records:
            failed[record["workload"]] += record["failed"]
        print(f"ops_failed {label}: " + ", ".join(f"{w}={n}" for w, n in sorted(failed.items())))
    traced_base, traced_change = series(base_records, 1), series(change_records, 1)
    layer_names = [m["name"] for m in bench["per_layer"]]
    for workload in [w["name"] for w in bench["workloads"]]:
        for name in layer_names:
            key = (workload, name)
            if key not in traced_base and key not in traced_change:
                continue
            values = [
                f"{median(side[key].values()):.4g}" if key in side else "-"
                for side in (traced_base, traced_change)
            ]
            if values != ["0", "0"]:
                print(f"{workload:20s} {name:32s} A {values[0]:>12s}  B {values[1]:>12s}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
