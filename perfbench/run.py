#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 20 --trace 0

Builds into .bench_build/ at the checkout root (Release), runs the
perfbench binary, and passes its output through. The last line of
standard output is the JSON result; its metric names are checked
against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1). Exits non-zero, without a result line, when the build
fails, the run fails, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    workloads = [w["name"] for w in spec["workloads"]]
    return workloads, {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    workloads, metrics = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("workload %s is not in BENCHMARK.json" % args.workload)
    build()

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if r.returncode != 0:
        # A failed output check still reports "correct": false; any
        # other failure leaves no result line.
        if result is not None and result.get("correct") is False:
            sys.stdout.write(r.stdout)
        else:
            sys.stderr.write(r.stdout)
        fail("perfbench exited with %d" % r.returncode)
    if result is None:
        fail("perfbench printed no JSON result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(metrics.items())))
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
