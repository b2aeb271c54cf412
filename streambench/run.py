#!/usr/bin/env python3
"""Builds and runs the layer-attributed stream benchmark.

Run from the root of a checkout:

    python3 streambench/run.py --workload fresh-mask --seed 1 --seconds 1 --trace 0

Builds streambench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR, or .bench_build when unset, runs one workload, and prints
the program's report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the "end_to_end" list of BENCHMARK.json, with
--trace 1 the "per_layer" list. --workload all runs every workload in turn
(one result line each). Exits non-zero, printing no result line, when the
build or the program fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fresh-mask", "guarded-durable"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("streambench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "streambench")


def build(out_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s/src" % ROOT)
    cmds = [["cmake", "--build", out_dir, "--parallel", "4"]]
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries the result only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "sofia_stream_bench")


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_workload(binary, work_dir, args, workload, contract):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    print("\n".join(lines[:-1]))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    problems = list(raw["problems"])
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = raw["metrics"].get(name)
        if value is None and name.startswith("kernel."):
            value = 0  # The kernel never ran on this workload.
        if value is None:
            problems.append("metric %s missing" % name)
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for problem in problems:
        print("streambench: check failed: " + problem, file=sys.stderr)
    result = {
        "correct": raw["ok"] and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    contract = load_contract()
    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(binary, work_dir, args, workload, contract)


if __name__ == "__main__":
    main()
