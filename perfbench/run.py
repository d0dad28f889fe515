#!/usr/bin/env python3
"""Builds the PQS-DA benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tail_miss --seed 1 --seconds 10 --trace 0

The binary, pqsda_perfbench, is configured and built under .bench_build/ (or
$CARGO_TARGET_DIR when set), then run with the same arguments.
Run artefacts (the span export and the full ledger) go to .bench_out/. The
last line of standard output is the binary's JSON result.

Exits non-zero without printing a result when the sources are missing, the
build fails, or the binary fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) are missing from this checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(out, "pqsda_perfbench")


def main():
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pqsda_perfbench timed out after {RUN_TIMEOUT_S}s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"pqsda_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("pqsda_perfbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("pqsda_perfbench result has unexpected keys")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
