#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

Run from the repository root. The first run configures and builds the
repository's libraries plus the benchmark (Release) under
$CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that is unset;
later runs only check that the build is current. Build output goes to
stderr, so stdout carries the benchmark's context line and, last, its result
object. Without the repository's sources beside this directory the script
exits with code 2 and prints no result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def fail(message, code):
    print("servebench: " + message, file=sys.stderr)
    return code


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(directory, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", directory, "-j", jobs,
                  "--target", target])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "servebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("the repository sources are not next to this "
                    "directory; run from a full checkout", 2)
    directory = build_dir()
    if "--selftest" in argv:
        if not (build(directory, "servebench")
                and build(directory, "servebench_selftest")):
            return fail("build failed", 3)
        sys.dont_write_bytecode = True
        sys.path.insert(0, HERE)
        import selftest
        return selftest.main(ROOT, directory)
    if not build(directory, "servebench"):
        return fail("build failed", 3)
    command = [os.path.join(directory, "servebench")] + argv + [
        "--commit", source_id(), "--build-type", BUILD_TYPE]
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        trace_dir = os.path.join(directory, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = "trace"
        for flag in ("--workload", "--seed"):
            if flag in argv and argv.index(flag) + 1 < len(argv):
                name += "-" + argv[argv.index(flag) + 1]
        command += ["--trace-out", os.path.join(trace_dir, name + ".jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
