#!/usr/bin/env python3
"""Parallel-backend join benchmark.

Builds perfbench/perf_parallel (Release) from the engine sources in src/
and runs one workload, or every workload when --workload is omitted:

    python3 perfbench/run.py --workload equi-sparse --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
when that variable is set, else to .bench_build/perfbench. Build output goes
to stderr; the last stdout line is the JSON result. The exit code is
non-zero when the build fails or any run disagrees with the oracle.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["equi-sparse", "equi-dense-b16", "band-ordered"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    generator = []
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"]
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perf_parallel", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "perf_parallel")


def source_id():
    """The commit when run inside git, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_one(binary, workload, args, commit):
    cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--commit={commit}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    commit = source_id()
    if args.workload:
        code, result = run_one(binary, args.workload, args, commit)
        return code if result is not None else (code or 1)

    # Every workload: one combined result, metrics named workload/metric.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args, commit)
        if result is None:
            return code or 1
        status = status or code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
