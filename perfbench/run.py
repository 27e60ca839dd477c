#!/usr/bin/env python3
"""Repository benchmark: builds spmvcache from source, runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict-a --seed 1 --seconds 15 \
        --trace 0

Workloads: predict-a, spmv-stencil, spmv-randomcv, serve-mix (see
BENCHMARK.json for why each exists). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
also writes its spans as a Chrome trace under .bench_build/traces/.

Everything the benchmark builds or writes stays under .bench_build/ in the
checkout. --tiny shrinks every input (the self-check uses it) and
--inject-wrong-expected corrupts the recorded predict-a predictions so
every op must fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
REPO_BUILD = BUILD / "repo"
PKG_BUILD = BUILD / "perfbench"
LIB_TARGETS = [
    "spmvcache_cli", "spmvcache_serve", "spmvcache_core", "spmvcache_kernels",
    "spmvcache_perf", "spmvcache_model", "spmvcache_cachesim",
    "spmvcache_reuse", "spmvcache_trace", "spmvcache_sparse",
    "spmvcache_sync", "spmvcache_util",
]
WORKLOADS = ["predict-a", "spmv-stencil", "spmv-randomcv", "serve-mix"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, env):
    """Runs a build step with its output on stderr; fails the run on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, cwd=ROOT)
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build(env):
    jobs = str(os.cpu_count() or 1)
    if not (REPO_BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", REPO_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DSPMVCACHE_BUILD_TESTS=OFF",
                    "-DSPMVCACHE_BUILD_BENCH=OFF",
                    "-DSPMVCACHE_BUILD_EXAMPLES=OFF",
                    "-DSPMV_CONTRACTS=log",
                    "-DSPMV_DEFAULT_INDEX_WIDTH=auto"], env)
    run_logged(["cmake", "--build", REPO_BUILD, "-j", jobs, "--target",
                *LIB_TARGETS], env)
    if not (PKG_BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT / "perfbench", "-B", PKG_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DSPMVCACHE_ROOT={ROOT}",
                    f"-DSPMVCACHE_BUILD={REPO_BUILD}"], env)
    run_logged(["cmake", "--build", PKG_BUILD, "-j", jobs], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-wrong-expected", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no spmvcache sources in {ROOT}; run from a repository checkout")

    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(env)

    work = BUILD / "work"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [PKG_BUILD / "perfbench",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--cli", REPO_BUILD / "tools" / "spmvcache",
           "--work-dir", work,
           "--trace-dir", BUILD / "traces",
           "--expected", ROOT / "perfbench" / "expected_predict_a.txt"]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_expected:
        cmd.append("--inject-wrong-expected")
    result = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    shutil.rmtree(work, ignore_errors=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        fail(f"perfbench exited with {result.returncode}")
    try:
        final = json.loads(lines[-1])
    except ValueError:
        final = None
    if not isinstance(final, dict) or set(final) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(result.stdout)
        fail("perfbench printed no result line")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
