#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny scale.

    python3 perfbench/selftest.py

Runs every workload run.py accepts (those of BENCHMARK.json plus
single-mem) with --tiny, once untraced and once traced, and checks that:
  - the run exits 0 and its last stdout line is the JSON result with
    exactly the keys correct, attempted, failed and metrics, every
    check passed and no operation failed;
  - it prints exactly the end-to-end (untraced) or per-layer (traced)
    metrics BENCHMARK.json names, each a finite number with the unit
    BENCHMARK.json gives it;
  - the traced run's span file parses, span ids are unique, every
    parent id resolves to a span of the same run, and every child lies
    within its parent.
Exits 1 and names each problem on failure.
"""

import json
import math
import os
import subprocess
import sys

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
SEED = 3
SPAN_KEYS = {"run", "id", "parent", "name", "start_us", "end_us"}
# Span times are printed with 1 ns resolution (microseconds, 3 places).
EPS_US = 1e-3


def check_result(line, expected, where):
    problems = []
    try:
        res = json.loads(line)
    except ValueError as e:
        return [f"{where}: last line is not JSON ({e})"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(res)}")
        return problems
    if res["correct"] is not True:
        problems.append(f"{where}: correct is {res['correct']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"{where}: attempted is {res['attempted']}")
    if res["failed"] != 0:
        problems.append(f"{where}: failed is {res['failed']}")
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"}:
            problems.append(f"{where}: {name} has keys {sorted(m)}")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{where}: {name} value {v!r}")
        if m["unit"] != unit:
            problems.append(f"{where}: {name} unit {m['unit']!r}, "
                            f"BENCHMARK.json says {unit!r}")
    return problems


def check_spans(path, where):
    try:
        with open(path, encoding="utf-8") as f:
            spans = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as e:
        return [f"{where}: span file {path}: {e}"]
    if not spans:
        return [f"{where}: span file {path} is empty"]
    problems = []
    by_id = {}
    for s in spans:
        if set(s) != SPAN_KEYS:
            problems.append(f"{where}: span keys {sorted(s)}")
            return problems
        if s["id"] in by_id:
            problems.append(f"{where}: duplicate span id {s['id']}")
        by_id[s["id"]] = s
        if s["end_us"] < s["start_us"]:
            problems.append(f"{where}: span {s['id']} ends before it "
                            "starts")
    for s in spans:
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            problems.append(f"{where}: span {s['id']} has unknown "
                            f"parent {s['parent']}")
            continue
        if p["run"] != s["run"]:
            problems.append(f"{where}: span {s['id']} and its parent "
                            "belong to different runs")
        if (s["start_us"] < p["start_us"] - EPS_US
                or s["end_us"] > p["end_us"] + EPS_US):
            problems.append(f"{where}: span {s['id']} ({s['name']}) "
                            f"lies outside parent {p['id']} ({p['name']})")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            where = f"{name} --trace {trace}"
            cmd = [sys.executable, RUN, "--workload", name, "--seed",
                   str(SEED), "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit {done.returncode}")
                continue
            problems += check_result(lines[-1], expected[trace], where)
            if trace:
                path = os.path.join(
                    SPANS_DIR, f"{name}-seed{SEED}-tiny.jsonl")
                problems += check_spans(path, where)
            print(f"selftest: {where}: ran", flush=True)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
