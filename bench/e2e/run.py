#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 bench/e2e/run.py --workload replay_agg --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py --workload all --seed 1 --out result.json

The engine and the benchmark are built from source as a Release CMake
package under $CARGO_TARGET_DIR (default: .bench_build at the repository
root). streamop_bench's output is passed through unchanged, so the last
line of standard output is the run's JSON result. Build output goes to
standard error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["replay_agg", "subsetsum_durable", "tcp_replay", "tcp_paced"]


def build_dir():
    """One build tree per checkout: when $CARGO_TARGET_DIR is an absolute
    path shared by two checkouts (compare.py), neither may run the other's
    binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    return os.path.join(ROOT, target, "e2e-" + key)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                        "--target", "streamop_bench"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    return os.path.join(bdir, "streamop_bench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics from the traced run")
    ap.add_argument("--trace-dir", help="where the traced run writes its "
                    "chrome trace and self-time table (implies --trace 1)")
    ap.add_argument("--out", help="--workload all: merged JSON results")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--work-dir", os.path.join(bdir, "work"),
           "--commit", commit()]
    if args.trace or args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir or os.path.join(bdir, "traces")]
    if args.out:
        cmd += ["--out", args.out]
    runs = len(WORKLOADS) if args.workload == "all" else 1
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT,
                              timeout=runs * (2 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        sys.exit("run.py: streamop_bench timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
