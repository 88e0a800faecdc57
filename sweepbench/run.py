#!/usr/bin/env python3
"""Build the divsec sweep benchmark from source and run one workload.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
sweepbench/ (the library sources plus the benchmark driver, Release) into
$CARGO_TARGET_DIR/sweepbench, default .bench_build/sweepbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout stays the benchmark's JSON result. Traced runs (--trace 1)
write their Chrome trace and obs:: snapshot under .../sweepbench/traces.

Exits non-zero without a result when the sources are missing or the build
fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build; returns the benchmark binary path."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "sweepbench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "sweepbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"sweepbench: build failed: {err}", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "traces")
    return subprocess.run([binary, *sys.argv[1:], "--out", out_dir], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
