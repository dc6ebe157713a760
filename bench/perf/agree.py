#!/usr/bin/env python3
"""Validates BENCHMARK.json and compares two sets of BENCH_perf.json runs.

    agree.py --validate BENCHMARK.json
    agree.py --spec BENCHMARK.json RUNS_A RUNS_B
    agree.py --self-test

RUNS_A and RUNS_B are directories of BENCH_perf.json files (any *.json
name), e.g. several seeds of each workload from two builds of one commit.
For every (workload, end-to-end metric) it prints each set's median and
quartiles and a verdict:

  agree       the medians differ by at most the metric's bound (relative
              to set A's median);
  unresolved  a set's spread, (q3 - q1) / median, exceeds the bound, so
              the comparison cannot tell a change from noise;
  DISAGREE    the spreads are within the bound but the medians are not.

Exits 1 when a pair disagrees or the spec is invalid, 0 otherwise.  Stdlib
only.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys
import tempfile

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


def validate(spec):
    """Returns a list of problems with a parsed BENCHMARK.json."""
    errors = []
    if set(spec) != TOP_KEYS:
        errors.append("top-level keys must be exactly %s" % sorted(TOP_KEYS))
        return errors
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32 or
            not all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd)):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errors.append("command: no absolute paths and no '..'")
    paths = spec["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16 or
            not all(isinstance(p, str) and PATH_RE.match(p) and
                    not p.startswith("/") and ".." not in p.split("/")
                    for p in paths)):
        errors.append("paths: 1 to 16 relative directory names")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds: a whole number from 1 to 60")

    names = set()

    def check_name(kind, name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append("%s: bad name %r" % (kind, name))
        elif name in names:
            errors.append("%s: name %r used twice" % (kind, name))
        names.add(name)

    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads: 2 to 8 entries")
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append("workload %r: keys must be name and why" % w)
            continue
        check_name("workload", w["name"])
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append("workload %s: why must be one line of at most 200 "
                          "characters" % w["name"])

    def check_metrics(kind, metrics, limit, keys):
        if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
            errors.append("%s: 1 to %d metrics" % (kind, limit))
            return
        for m in metrics:
            if set(m) != keys:
                errors.append("%s %r: keys must be %s" % (kind, m, sorted(keys)))
                continue
            check_name(kind, m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errors.append("%s %s: bad unit %r" % (kind, m["name"], m["unit"]))
            if m["better"] not in ("higher", "lower"):
                errors.append("%s %s: better must be higher or lower"
                              % (kind, m["name"]))
            if "bound" in keys:
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool) or
                        not 0 < b <= 0.25):
                    errors.append("%s %s: bound must be in (0, 0.25]"
                                  % (kind, m["name"]))

    check_metrics("end_to_end", spec["end_to_end"], 16,
                  {"name", "unit", "better", "bound"})
    check_metrics("per_layer", spec["per_layer"], 128,
                  {"name", "unit", "better"})
    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and
             m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end: setup_s with unit s and better lower is "
                      "required")
    elif any(isinstance(m, dict) and m.get("bound", 0) > setup[0]["bound"]
             for m in spec["end_to_end"]):
        errors.append("end_to_end: setup_s must have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        errors.append("the file exceeds 64 KiB")
    return errors


def load_runs(directory):
    """{(workload, metric): [values]} from every *.json in `directory`."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            run = json.load(f)
        for row in run["e2e"]:
            out.setdefault((run["workload"], row["name"]), []).append(
                float(row["value"]))
    return out


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(spec, runs_a, runs_b, out=sys.stdout):
    """Prints one verdict per (workload, metric); returns the number of
    disagreements."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    disagreements = 0
    unresolved = 0
    keys = sorted(k for k in runs_a if k[1] in bounds and k in runs_b)
    out.write("%-12s %-14s %-32s %-32s %7s  %s\n" % (
        "workload", "metric", "A: q1 / median / q3 (spread)",
        "B: q1 / median / q3 (spread)", "bound", "verdict"))
    for workload, metric in keys:
        bound = bounds[metric]
        q1a, ma, q3a = summary(runs_a[(workload, metric)])
        q1b, mb, q3b = summary(runs_b[(workload, metric)])
        sa = (q3a - q1a) / abs(ma) if ma else float("inf")
        sb = (q3b - q1b) / abs(mb) if mb else float("inf")
        diff = abs(mb - ma) / abs(ma) if ma else float("inf")
        if max(sa, sb) > bound:
            verdict = "unresolved"
            unresolved += 1
        elif diff <= bound:
            verdict = "agree (%+.1f%%)" % (100.0 * (mb - ma) / ma)
        else:
            verdict = "DISAGREE (%+.1f%%)" % (100.0 * (mb - ma) / ma)
            disagreements += 1
        out.write("%-12s %-14s %-32s %-32s %6.0f%%  %s\n" % (
            workload, metric, "%.4g / %.4g / %.4g (%.1f%%)"
            % (q1a, ma, q3a, 100 * sa), "%.4g / %.4g / %.4g (%.1f%%)"
            % (q1b, mb, q3b, 100 * sb), 100 * bound, verdict))
    out.write("%d pairs, %d unresolved, %d disagree\n"
              % (len(keys), unresolved, disagreements))
    return disagreements


def self_test():
    """Checks validate() and compare() on canned JSON in testdata/."""
    here = os.path.dirname(os.path.abspath(__file__))
    data = os.path.join(here, "testdata")
    with open(os.path.join(data, "benchmark_good.json"), encoding="utf-8") as f:
        good = json.load(f)
    with open(os.path.join(data, "benchmark_bad.json"), encoding="utf-8") as f:
        bad = json.load(f)
    failures = []
    if validate(good):
        failures.append("good spec rejected: %s" % validate(good))
    bad_errors = validate(bad)
    for needle in ("bad name", "bound must be", "workloads: 2 to 8",
                   "setup_s"):
        if not any(needle in e for e in bad_errors):
            failures.append("bad spec not rejected for %r: %s"
                            % (needle, bad_errors))
    with tempfile.TemporaryFile("w+") as sink:
        a = load_runs(os.path.join(data, "runs_a"))
        same = compare(good, a, load_runs(os.path.join(data, "runs_b")), sink)
        shifted = compare(good, a, load_runs(os.path.join(data, "runs_c")),
                          sink)
        sink.seek(0)
        text = sink.read()
    if same != 0:
        failures.append("runs_a vs runs_b should agree:\n" + text)
    if shifted != 1:
        failures.append("runs_a vs runs_c should disagree on one pair:\n" +
                        text)
    if "unresolved" not in text:
        failures.append("the noisy pair should be unresolved:\n" + text)
    for f in failures:
        print("FAIL: " + f)
    print("agree.py self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--validate", metavar="BENCHMARK_JSON")
    ap.add_argument("--spec", metavar="BENCHMARK_JSON")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("runs", nargs="*", metavar="RUNS_DIR")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    path = args.validate or args.spec
    if path is None:
        ap.error("give --validate, --spec or --self-test")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    errors = validate(spec)
    for e in errors:
        print("invalid: " + e)
    if errors:
        return 1
    if args.validate:
        print("%s: valid" % path)
        return 0
    if len(args.runs) != 2:
        ap.error("--spec needs two run directories")
    disagreements = compare(spec, load_runs(args.runs[0]),
                            load_runs(args.runs[1]))
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
