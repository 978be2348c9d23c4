#!/usr/bin/env python3
"""Builds and runs one perfbench workload (see README.md).

    python3 perfbench/run.py --workload profile|whatif|serve --seed N \
        --seconds S --trace 0|1

Run from the repo root. The first run configures and builds the predictor
library and the benchmark binary under .bench_build/ (CMake,
RelWithDebInfo); later runs rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the binary's JSON result.
"""

import argparse
import ctypes
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
OUT_DIR = BUILD / "out"
WORKLOADS = ("profile", "whatif", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return a


def build():
    """Configures (once) and builds the binary; returns its path."""
    for needed in ("src/CMakeLists.txt", "bench/kernel_suite.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}: run from a full checkout of the repo")
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
    exe = CMAKE_DIR / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def disable_aslr():
    """Turns address-space randomization off for the processes this one
    starts. The simulated cache indexes host addresses, so with it on the
    LLC-miss counts and profiled trees change from run to run."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current == -1:
            return False
        if libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
            return False
        return bool(libc.personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        return False


def src_lines():
    n = 0
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            with open(path, "rb") as f:
                n += sum(1 for _ in f)
    return n


def main():
    args = parse_args()
    exe = build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    aslr_off = disable_aslr()
    print(f"note src/ lines: {src_lines()} (info only)")
    print(f"note address-space randomization: {'off' if aslr_off else 'on'}")
    sys.stdout.flush()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(OUT_DIR, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        print(f"perfbench: benchmark binary exited with {proc.returncode}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
