#!/usr/bin/env python3
"""Measure phoebe_bench's seed baseline and write it as a snapshot.

  python3 perfbench/baseline.py --out perfbench/snapshots/BENCH_phoebe_seed.json

Runs every workload of BENCHMARK.json once per seed for each seed set (by
default seeds 1-10 and 11-20, end-to-end), then traced at the trace seeds
(7 and 11), all through run.py from the root of the checkout. For each set
it records every metric's median, quartiles (statistics.quantiles, n=4) and
spread (interquartile range over median) per workload, the per-seed values,
and each run's diagnostics; plus nproc, the compiler and the build type.
Exits nonzero if any run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, build_dir


def seeds(arg):
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline: {workload} seed {seed} trace {trace} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail_name = workload + (".trace" if trace else "") + ".json"
    with open(os.path.join(build_dir(), "out", detail_name)) as f:
        detail = json.load(f)
    print(f"baseline: {workload} seed {seed} trace {trace}: ok", file=sys.stderr)
    return result, detail["diagnostics"]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def compiler():
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    found = {}
    with open(cache) as f:
        for line in f:
            for key in ("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:"):
                if line.startswith(key):
                    found[key[:-1]] = line.split("=", 1)[1].strip()
    version = subprocess.run([found["CMAKE_CXX_COMPILER"], "--version"],
                             stdout=subprocess.PIPE, text=True).stdout.splitlines()[0]
    return version, found["CMAKE_BUILD_TYPE"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--sets", nargs="+", default=["1-10", "11-20"])
    parser.add_argument("--trace-seeds", default="7,11")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for seed_range in args.sets:
        by_workload = {}
        for w in workloads:
            values, runs = {}, []
            for seed in seeds(seed_range):
                result, diagnostics = run(w, seed, seconds, 0)
                runs.append({"seed": seed, "attempted": result["attempted"],
                             "failed": result["failed"], "diagnostics": diagnostics})
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            by_workload[w] = {"metrics": {k: summarize(v) for k, v in values.items()},
                              "runs": runs}
        sets.append({"seeds": seed_range, "workloads": by_workload})

    traced = {}
    for w in workloads:
        for seed in [int(s) for s in args.trace_seeds.split(",")]:
            result, diagnostics = run(w, seed, seconds, 1)
            traced.setdefault(w, {})[str(seed)] = {
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                "diagnostics": diagnostics}

    cxx, build_type = compiler()
    snapshot = {
        "bench": "phoebe_bench",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": cxx,
        "build_type": build_type,
        "run_seconds": seconds,
        "sets": sets,
        "traced": traced,
    }
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
