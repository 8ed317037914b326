#!/usr/bin/env python3
"""Build and run phoebe_bench, Phoebe's end-to-end benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json. The script configures and
builds perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR, default
.bench_build, then runs the benchmark binary. The binary prints one JSON
result as the last line of stdout and exits nonzero when a check fails.

`--workload all` runs every workload, each in its own process so peak
memory is measured per workload, and prints one combined JSON line.
Build output goes to stderr; if the sources are missing the build fails and
the script exits nonzero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build the benchmark (a no-op when up to date); returns
    the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "phoebe_bench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(2)
    return os.path.join(out, "phoebe_bench")


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_one(binary, workload, args, passthrough):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out] + passthrough
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"phoebe_bench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="trace spans and detailed reports (default: "
                             "<build dir>/out)")
    args, passthrough = parser.parse_known_args()
    binary = build()
    args.out = args.out or os.path.join(build_dir(), "out")

    if args.workload != "all":
        code, line = run_one(binary, args.workload, args, passthrough)
        if line is not None:
            print(line)
        return code

    results, code = {}, 0
    for name in workload_names():
        rc, line = run_one(binary, name, args, passthrough)
        code = code or rc
        results[name] = json.loads(line) if line else None
    done = [r for r in results.values() if r]
    print(json.dumps({
        "correct": code == 0 and len(done) == len(results)
                   and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "workloads": results,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
