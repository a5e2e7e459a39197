#!/usr/bin/env python3
"""Builds and runs spsta_bench, the end-to-end benchmark.

    python3 spsta_bench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 spsta_bench/run.py --smoke

The first run configures and builds the package (the repository's
libraries, spsta_serviced and the spsta_bench binary) in .bench_build at
the root of the checkout, or in $CARGO_TARGET_DIR when that is set; later
runs only check that the build is current. Build output goes to standard
error, so the last line of standard output is the benchmark's result line.

--trace 1 re-runs the workload traced and reports the per-layer metrics;
the spans land in <build>/spans/<workload>-<seed>.jsonl.

--smoke runs every workload for one second, traced, and checks the emitted
metrics against BENCHMARK.json. It asserts no timing.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "eco", "signoff", "cold")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def die_with_parent():
    # PR_SET_PDEATHSIG: the benchmark binary (and through it the daemon) never
    # outlives this script.
    ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a build system exists; after that the build re-runs
    # CMake itself when a CMakeLists.txt changes.
    if not any(os.path.exists(os.path.join(out, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "spsta_bench", "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                       preexec_fn=die_with_parent)
    return os.path.join(out, "spsta_bench")


def run_bench(binary, args):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent).returncode
    except subprocess.TimeoutExpired:
        print("spsta_bench: timed out", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"spsta_bench: build failed: {e}", file=sys.stderr)
        return 2
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)

    if args.smoke:
        failed = [w for w in WORKLOADS if run_bench(binary, [
            f"--workload={w}", f"--seed={args.seed}", "--seconds=1",
            f"--trace={os.path.join(spans, f'smoke-{w}.jsonl')}",
            f"--check={os.path.join(ROOT, 'BENCHMARK.json')}"]) != 0]
        print(f"spsta_bench smoke: {len(WORKLOADS) - len(failed)}/{len(WORKLOADS)} passed"
              + (f"; failed: {', '.join(failed)}" if failed else ""), file=sys.stderr)
        return 1 if failed else 0

    bench_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                  f"--seconds={args.seconds}"]
    if args.trace:
        bench_args.append(
            f"--trace={os.path.join(spans, f'{args.workload}-{args.seed}.jsonl')}")
    return run_bench(binary, bench_args)


if __name__ == "__main__":
    sys.exit(main())
