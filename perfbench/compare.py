#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark.

    python3 perfbench/run.py --workload all --seed 1 --record base.jsonl
    ...                                   (several seeds, both sides)
    python3 perfbench/compare.py base.jsonl change.jsonl

A result set is a JSON-lines file written by run.py --record, or a
directory whose *.jsonl files together form the set. For every workload x
end-to-end metric (records with trace 0) it prints each side's median and
quartiles and a verdict against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the bound
  better      the change wins at least 9 of 10 seed pairs and its median is
              better by more than the base's own spread (quartile distance)
  unchanged   neither, with the base's spread within the bound
  unresolved  the base's spread is wider than the bound and not every run
              of one side beats every run of the other

From records with trace 1 it prints the serving tail (serve_p99_us,
serve_max_rps), which has no bound because it follows the machine's other
load, and compares deterministic counters seed by seed, reporting exact
matches or diffs. Failed operations are reported
per side; any failure makes the comparison fail.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

# Per-layer metrics shown side by side without a verdict.
UNBOUNDED = ["serve_p99_us", "serve_max_rps"]

# Per-layer metrics that repeat exactly for a given seed and build.
DETERMINISTIC = [
    "core.hist_updates", "core.hist_peak_bytes", "core.apply_bytes_moved",
    "core.apply_allocs", "core.model_bytes", "data.mapped_bytes",
    "parallel.region_launches", "parallel.phase_barriers",
    "dist.hist_exchanges", "dist.hist_wire_bytes", "dist.hist_dense_bytes",
    "dist.allreduce_calls", "dist.allreduce_bytes", "dist.broadcast_bytes",
    "dist.barriers", "dist.wire_bytes_per_tree", "serve.snapshots_unfreed",
]


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    return [json.loads(line) for f in files
            for line in f.read_text().splitlines() if line.strip()]


def values(records, workload, trace, name):
    """Metric values by seed (the last record wins for a repeated seed)."""
    out = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace and \
                name in r["metrics"]:
            out[r["seed"]] = r["metrics"][name]["value"]
    return out


def summary(vals):
    vals = sorted(vals)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def verdict(base, change, metric):
    """base/change: value by seed. Returns the verdict string."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b_med, b_q1, b_q3 = summary(base.values())
    c_med, _, _ = summary(change.values())
    gain = sign * (c_med - b_med) / abs(b_med)  # > 0: change is better
    spread = (b_q3 - b_q1) / abs(b_med)
    all_better = min(sign * v for v in change.values()) > \
        max(sign * v for v in base.values())
    all_worse = max(sign * v for v in change.values()) < \
        min(sign * v for v in base.values())
    if spread > metric["bound"]:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if -gain > metric["bound"]:
        return "worse"
    pairs = [s for s in base if s in change]
    wins = sum(sign * change[s] > sign * base[s] for s in pairs)
    if gain > spread and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="result set of the base commit")
    parser.add_argument("change", help="result set of the change")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    base, change = load(args.base), load(args.change)
    failed = False

    print(f"{'workload':15s} {'metric':20s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            b = values(base, w["name"], 0, m["name"])
            c = values(change, w["name"], 0, m["name"])
            if not b or not c:
                continue
            bs = "%.5g [%.5g, %.5g]" % summary(b.values())
            cs = "%.5g [%.5g, %.5g]" % summary(c.values())
            print(f"{w['name']:15s} {m['name']:20s} {bs:>34s} {cs:>34s}  "
                  f"{verdict(b, c, m)}")

    print("\nserving tail (no bound):")
    for w in spec["workloads"]:
        for name in UNBOUNDED:
            b = values(base, w["name"], 1, name)
            c = values(change, w["name"], 1, name)
            if b and c:
                print(f"  {w['name']:15s} {name:18s} "
                      "base %.5g [%.5g, %.5g]" % summary(b.values()) +
                      "  change %.5g [%.5g, %.5g]" % summary(c.values()))

    print("\ndeterministic counters (seed by seed):")
    for w in spec["workloads"]:
        for name in DETERMINISTIC:
            b = values(base, w["name"], 1, name)
            c = values(change, w["name"], 1, name)
            diffs = [f"seed {s}: {b[s]:.0f} -> {c[s]:.0f}"
                     for s in sorted(b) if s in c and b[s] != c[s]]
            if not (set(b) & set(c)):
                continue
            print(f"  {w['name']:15s} {name:28s} "
                  f"{'exact' if not diffs else 'DIFF ' + '; '.join(diffs)}")

    print("\nfailed operations:")
    for label, records in (("base", base), ("change", change)):
        attempted = sum(r["attempted"] for r in records)
        bad = sum(r["failed"] for r in records) + \
            sum(not r["correct"] for r in records if r["failed"] == 0)
        failed = failed or bad > 0
        print(f"  {label}: {bad} of {attempted}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
