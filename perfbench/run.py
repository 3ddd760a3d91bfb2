#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles the prochecker libraries from src/) into .bench_build/, runs the
benchmark's self-tests, then runs one workload for --seconds seconds. The last
line of stdout is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. A traced run also writes its spans to .bench_build/traces/.

Exit status: 0 when every verdict matched the pinned answers in
perfbench/answers/, 1 when one did not, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# Each run must end within 180 s; the workload itself measures --seconds.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what, timeout):
    """Runs cmd with its output on stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{what} failed: {e}")
    if proc.returncode != 0:
        fail(f"{what} failed with exit code {proc.returncode}")


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  "configure", 300)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"], "build", 850)


def self_test():
    proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("benchmark self-tests failed")


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """sha256 over the program and benchmark sources (a checkout need not be a git repo)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build()
    self_test()

    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--answers", os.path.join(BENCH_DIR, "answers"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"workload exited with code {proc.returncode}")

    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"result metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
