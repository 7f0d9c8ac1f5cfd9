#!/usr/bin/env python3
"""Builds and runs the TuFast repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload analytics --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

Workloads: analytics, txn_skewed, ingest_hot, serve_durable (see
perfbench/NOTES.md). The script configures and builds the `perfbench`
binary from the sources in this checkout (into $CARGO_TARGET_DIR, default
.bench_build), then runs it. The binary prints human-readable lines and, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics; this script passes that output through unchanged and exits with
the binary's code. A failed build exits non-zero without printing a
result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir, "perfbench")
    run_dir = os.path.join(root, ".bench_build", "run")
    os.makedirs(run_dir, exist_ok=True)

    def quiet(cmd):
        # Build chatter goes to stderr so the last stdout line stays the
        # result object.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(2)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        quiet(["cmake", "-S", here, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])

    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.run([binary, "--run-dir", run_dir] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
