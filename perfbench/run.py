#!/usr/bin/env python3
"""End-to-end benchmark of the artsci in-transit training and serving system.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the repository's libraries) into
.bench_build/perfbench, pins the OpenMP team size to the host's core count,
runs one workload in its own process and passes its output through. The
last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}. Spans and the full result record go to .bench_out/. Exits
non-zero when the build fails, an output check fails or the run overruns.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("intransit_train", "intransit_sim", "serve_mixed")
RUN_TIMEOUT_S = 170


def host_cores():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build incrementally; returns the binary path."""
    generated = any(os.path.exists(os.path.join(BUILD_DIR, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(host_cores())],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "artsci_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    env = dict(os.environ)
    # The OpenMP team size moves the in-transit numbers more than a typical
    # change does, so every run uses one team of all the host's cores.
    env["OMP_NUM_THREADS"] = str(host_cores())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(proc.stdout)
        print("perfbench: the run printed no result object", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
