#!/usr/bin/env python3
"""Build and run the mmph end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload durable_churn --seed 1 --seconds 45 --trace 0

Builds the mmph libraries and the harness (Release) into .bench_build/
on first use, then runs it. The harness prints a human-readable report,
a `record {...}` line with the run record, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is the
harness's: non-zero when a correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "mmph_perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"mmph sources not found under {ROOT}/src")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "mmph_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def source_revision():
    """git HEAD when available, else a digest of the sources built."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("include", "src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--rev", source_revision()]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 1
    finally:
        # Keep the span dump of a traced run; drop any WAL directories.
        for name in os.listdir(WORK_DIR) if os.path.isdir(WORK_DIR) else []:
            path = os.path.join(WORK_DIR, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
