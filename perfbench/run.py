#!/usr/bin/env python3
"""Builds the engine and the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload <cold_adhoc|literal_drift|warm_concurrent>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the checkout root and is
incremental after the first run. Build output goes to stderr; the binary's
report goes to stdout, whose last line is one JSON object. The exit code is
the binary's: non-zero when any query failed or a workload check did not
hold. --selftest runs every workload at tiny scale, both traced and
untraced, and then once more with corrupted reference results, which must
make each run fail.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "build", "perfbench")
WORKLOADS = ["cold_adhoc", "literal_drift", "warm_concurrent"]
RUN_TIMEOUT_S = 175


def build():
    build_dir = os.path.join(BUILD, "build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_binary(args, capture=False):
    cmd = [BINARY, "--out-dir", os.path.join(BUILD, "out")] + args
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    out = proc.stdout.decode() if capture else ""
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def selftest():
    failures = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_binary(["--workload", w, "--seed", "3", "--seconds", "1",
                                    "--trace", trace, "--tiny", "--setup-reps", "1"],
                                   capture=True)
            res = last_json(out)
            ok = code == 0 and res is not None and res["correct"] and res["failed"] == 0
            print("selftest %-16s trace=%s: %s" % (w, trace, "ok" if ok else "FAILED"))
            if not ok:
                failures.append("%s trace=%s exited %d" % (w, trace, code))
        code, out = run_binary(["--workload", w, "--seed", "3", "--seconds", "1", "--trace",
                                "0", "--tiny", "--setup-reps", "1", "--corrupt-reference"],
                               capture=True)
        res = last_json(out)
        caught = code != 0 and res is not None and not res["correct"] and res["failed"] > 0
        print("selftest %-16s corrupted reference: %s" % (w, "rejected" if caught else
                                                           "NOT REJECTED"))
        if not caught:
            failures.append("%s accepted a corrupted reference" % w)
    for f in failures:
        print("selftest failure: " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if a.selftest:
        return selftest()
    code, _ = run_binary(["--workload", a.workload, "--seed", str(a.seed), "--seconds",
                          repr(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
