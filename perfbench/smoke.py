#!/usr/bin/env python3
"""Smoke test for phoebe_bench: every workload at tiny sizes, untraced and
traced, checked against BENCHMARK.json.

  python3 perfbench/smoke.py --bench PATH/TO/phoebe_bench --out DIR

For each run it asserts that the exit code is 0; that the last stdout line
has exactly the keys correct/attempted/failed/metrics with every check
passed and nothing failed; that the metrics are exactly the BENCHMARK.json
names for that mode, each with its unit and a finite value; and, for traced
runs, that the span file parses and every span's self time is >= 0.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_KEYS = {"trace", "span", "parent", "name", "start_ns", "end_ns"}


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(where, metrics, specs):
    expected = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(expected):
        fail(f"{where}: metric names differ: "
             f"missing {sorted(set(expected) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(f"{where}: {name} should carry unit {unit!r}, got {m}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{where}: {name} is not a finite number: {m['value']!r}")


def check_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            if set(span) != SPAN_KEYS:
                fail(f"{path}: span keys {sorted(span)}")
            spans[span["span"]] = span
    if not spans:
        fail(f"{path}: no spans")
    child_ns = {}
    for s in spans.values():
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    for sid, s in spans.items():
        if s["end_ns"] - s["start_ns"] - child_ns.get(sid, 0) < 0:
            fail(f"{path}: span {sid} ({s['name']}) has negative self time")
    return len(spans)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [args.bench, "--workload", workload, "--seed", "7", "--seconds", "0.3",
                 "--trace", str(trace), "--out", args.out, "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=120)
            if proc.returncode != 0:
                fail(f"{where}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                     f"failed={result['failed']}")
            check_metrics(where, result["metrics"],
                          spec["per_layer"] if trace else spec["end_to_end"])
            note = ""
            if trace:
                note = f", {check_spans(os.path.join(args.out, workload + '.trace.jsonl'))} spans"
            print(f"smoke: {where}: ok{note}")
    print("smoke: passed")


if __name__ == "__main__":
    main()
