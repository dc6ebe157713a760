#!/usr/bin/env python3
"""Builds chenfd_bench if needed, runs one workload, and prints the result.

    python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr.
The benchmark's own lines (`name value unit`) pass through to stdout, and
the last line is one JSON object with the keys correct, attempted, failed
and metrics: every end_to_end metric of BENCHMARK.json with --trace 0, every
per_layer metric with --trace 1.  Exits 1 without that line when the build
or the run fails, or a listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "chenfd_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    report_path = os.path.join(ROOT, "BENCH_perf.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [os.path.join(build_dir, "chenfd_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        # One file per workload: a traced rt run writes tens of MB of spans.
        cmd += ["--trace",
                os.path.join(build_dir, "trace_%s.json" % args.workload)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not os.path.exists(report_path):
        fail("benchmark run failed with exit code %d" % proc.returncode)

    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    rows = {r["name"]: r for r in report["layer" if args.trace else "e2e"]}
    metrics = {}
    for m in listed:
        row = rows.get(m["name"])
        if row is None:
            fail("metric %s missing from BENCH_perf.json" % m["name"])
        if row["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], row["unit"], m["unit"]))
        metrics[m["name"]] = {"value": row["value"], "unit": row["unit"]}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
