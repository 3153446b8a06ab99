#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload solo_attack --seed 1 --seconds 10 --trace 0

The simulator libraries and the perfbench program are compiled from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. The exit code
is non-zero when the build fails or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solo_attack", "shared_gateway", "capture_roundtrip")


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-check: flip the stored reference digest, which "
                         "must make the run fail")
    args = ap.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(root, f"run-{os.getpid()}"),
           "--reference", os.path.join(HERE, "reference.json"),
           "--trace-out", os.path.join(root, f"trace-{args.workload}.json")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
