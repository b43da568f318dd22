#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

    python3 servebench/run.py --selftest

Runs the C++ self-tests (stream determinism, failure counting), then a
short run of every workload, untraced and traced, and checks that each
prints a result line carrying exactly the metrics BENCHMARK.json names,
with finite values, every end-to-end metric above 0.
"""

import json
import math
import os
import subprocess
import sys

SHORT_SECONDS = "1"
# Every workload the benchmark implements, including the two BENCHMARK.json
# leaves out (README.md, "Steadiness").
WORKLOADS = ["explore-cold", "shared-adapt", "shared-batch", "graph-open"]


def check_result(stdout, names, positive, label):
    problems = []
    lines = stdout.strip().splitlines()
    if not lines:
        return [label + ": no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [label + ": last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(label + ": result keys " + str(sorted(result)))
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append("%s: missing %s, unexpected %s" % (label, missing,
                                                           extra))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (label, name))
        elif positive and value <= 0:
            problems.append("%s: %s is %s" % (label, name, value))
    if result.get("attempted", 0) < 1:
        problems.append(label + ": nothing attempted")
    if result.get("correct") is not True:
        problems.append(label + ": outputs did not match the replica")
    return problems


def main(root, build_dir):
    selftest = os.path.join(build_dir, "servebench_selftest")
    binary = os.path.join(build_dir, "servebench")
    problems = []
    if subprocess.run([selftest], cwd=root).returncode != 0:
        problems.append("C++ self-tests failed")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for workload in WORKLOADS:
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            label = "%s --trace %s" % (workload, trace)
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", "3", "--seconds",
                 SHORT_SECONDS, "--trace", trace, "--setups", "1"],
                cwd=root, capture_output=True, text=True, timeout=175)
            if done.returncode != 0:
                problems.append("%s: exit code %d" % (label, done.returncode))
                continue
            found = check_result(done.stdout, names, trace == "0", label)
            problems += found
            print(("FAIL " if found else "ok ") + label)
    for problem in problems:
        print("FAIL: " + problem, file=sys.stderr)
    return 1 if problems else 0
