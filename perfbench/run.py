#!/usr/bin/env python3
"""End-to-end benchmark of HarpGBDT: one workload per invocation.

    python3 perfbench/run.py --workload pipeline_dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run from the repository root. The first call configures and builds
perfbench/ (the library from src/ plus the harp_e2e driver) into
.bench_build/ (or $CARGO_TARGET_DIR); later calls only re-check the build.

Each workload runs its set-up phase SETUP_REPEATS times in fresh processes
(setup_s is their median), then its measured phase in one more process, so
peak_rss_mb belongs to that workload alone. With --trace 0 the result holds
every end-to-end metric of BENCHMARK.json; with --trace 1 every per-layer
metric (a layer that did no work in the workload reads 0). The last stdout
line is the result as JSON; the exit code is 0 only when every layer call
succeeded and every output matched its reference.
"""
import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # every phase of one workload, build excluded


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_spec():
    path = Path("BENCHMARK.json")
    if not path.is_file():
        raise SystemExit("run.py: BENCHMARK.json not found; run from the repository root")
    return json.loads(path.read_text())


def build(build_root):
    """Configures and builds harp_e2e; returns its path."""
    cmake_dir = build_root / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    with open(build_root / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", "4"])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")
    return cmake_dir / "harp_e2e"


def run_phase(binary, workload, phase, work_dir, seed, seconds, trace, deadline):
    """Runs one phase in its own process; returns (exit code, result dict)."""
    cmd = [str(binary), "--workload", workload, "--phase", phase,
           "--work-dir", str(work_dir), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"run.py: {workload} {phase} printed no result "
                         f"(exit {proc.returncode})")
    return proc.returncode, result


def run_workload(binary, spec, build_root, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = build_root / "work" / workload
    phases = [run_phase(binary, workload, "setup", work_dir, seed, seconds,
                        trace, deadline) for _ in range(SETUP_REPEATS)]
    phases.append(run_phase(binary, workload, "run", work_dir, seed, seconds,
                            trace, deadline))
    measured = dict(phases[-1][1]["metrics"])
    # Set-up metrics (setup_s, and train_s where training happens in
    # set-up) are medians over the set-up repeats.
    for name in phases[0][1]["metrics"]:
        if name not in measured:
            measured[name] = statistics.median(
                p[1]["metrics"][name] for p in phases[:-1])

    correct = all(code == 0 and r["correct"] and r["failed"] == 0
                  for code, r in phases)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"])
        if value is None and trace:
            value = 0.0  # the layer did no work in this workload
        if value is None or not math.isfinite(value):
            log(f"{workload}: metric {entry['name']} missing")
            correct = False
            continue
        if not trace and value <= 0:
            # A measurement, not a failure: e.g. no ladder rate met the
            # latency limit on an overloaded machine.
            log(f"{workload}: end-to-end metric {entry['name']} reads {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in phases),
        "failed": sum(r["failed"] for _, r in phases),
        "metrics": metrics,
    }


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the result, tagged with workload, seed "
                             "and trace, as one JSON line (compare.py input)")
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_workload(binary, spec, build_root, workload, args.seed,
                              args.seconds, args.trace)
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:15s} {name:28s} {m['value']:16.6g} {m['unit']}")
        if args.record:
            tagged = {"workload": workload, "seed": args.seed,
                      "trace": args.trace, **result}
            with open(args.record, "a") as out:
                out.write(json.dumps(tagged) + "\n")
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
