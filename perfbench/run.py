#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload kv_wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the repository. The first call builds the benchmark
(perfbench/CMakeLists.txt: the Jiffy libraries from src/ plus the benchmark
program in this directory) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones; every other line starts with '#'. A run whose program fails (a crash,
a timeout, a metric missing from its output) exits non-zero and reports
correct=false: it is never retried. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Corrupt-check runs only need a few reads; full-length runs are needed for
# every p99 to have ten samples beyond it.
CORRUPT_CHECK_SECONDS = 2


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Jiffy sources (src/) are not next to perfbench/; run from "
             "a full checkout of the repository", 2)
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=log, stderr=log) != 0:
            fail("cmake configure failed", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail("build failed", 3)
    return os.path.join(out, "perfbench")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in contract()[key]}


def run_binary(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs the benchmark binary; returns (exit code, lines, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0"]
    if corrupt:
        cmd.append("--corrupt-check")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return -1, out.splitlines(), None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_metrics(result, trace):
    """Returns a list of problems with the metrics a run printed."""
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %r, want %r" %
                            (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in got:
        if name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    return problems


def run_once(args):
    binary = build()
    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace == 1)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    problems = []
    if code != 0:
        problems.append("program exited with %d" % code)
    if result is None:
        problems.append("program printed no result line")
    else:
        problems += check_metrics(result, args.trace == 1)
    if problems:
        for p in problems:
            print("# FAIL %s (reproduce: python3 perfbench/run.py --workload "
                  "%s --seed %d --seconds %s --trace %d)" %
                  (p, args.workload, args.seed, args.seconds, args.trace))
        attempted = result.get("attempted", 1) if result else 1
        failed = max(1, result.get("failed", 1) if result else 1)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        sys.exit(1)
    print(json.dumps(result))


def self_test():
    """One run of every workload in each mode: every metric printed with its
    unit and no failure; then a short run with a deliberately corrupted
    expected value, which the read checker must flag."""
    binary = build()
    seconds = contract()["run_seconds"]
    problems = []
    for w in contract()["workloads"]:
        name = w["name"]
        for trace in (False, True):
            code, _, result = run_binary(binary, name, 1, seconds, trace)
            what = "%s --trace %d" % (name, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, result %r" % (what, code,
                                                            result))
                continue
            for p in check_metrics(result, trace):
                problems.append("%s: %s" % (what, p))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: run reported failures" % what)
            print("# self-test %-24s %d metrics checked" %
                  (what, len(result["metrics"])))
        code, _, result = run_binary(binary, name, 1, CORRUPT_CHECK_SECONDS,
                                     False, corrupt=True)
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append("%s: the read checker missed a corrupted "
                            "expected value" % name)
        else:
            print("# self-test %-24s corrupted expectation flagged "
                  "(%d failure)" % (name + " --corrupt-check",
                                    result["failed"]))
    for p in problems:
        print("# self-test FAIL " + p)
    print("# self-test %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    run_once(args)


if __name__ == "__main__":
    main()
