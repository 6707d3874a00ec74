#!/usr/bin/env python3
"""Builds and runs the ctc-gateway benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload scan_sparse --seed 1 --seconds 20 --trace 0

The benchmark is the Rust package beside this file. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root) and then run with the same arguments. Its last line of
standard output is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan_sparse", "scan_dense", "live_ensemble")

# The first run in a fresh checkout compiles the gateway; later runs reuse
# the build. Both limits stay inside the budget a run is given.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def command_output(cmd):
    """First line of a command's output, or 'unknown' when it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_digest():
    """SHA-256 over the gateway's sources, for checkouts without git."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted((ROOT / "crates").rglob("*.rs"))
    files += sorted((ROOT / "crates").rglob("Cargo.toml"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "crates" / "gateway" / "Cargo.toml").is_file():
        return fail(f"no gateway sources under {ROOT / 'crates'}; run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("the benchmark build timed out")
    except OSError as e:
        return fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        return fail("the benchmark did not build")

    git_sha = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown"
    cmd = [
        str(target / "release" / "ctc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rustc", command_output(["rustc", "--version"]),
        "--git-sha", git_sha,
        "--source-digest", source_digest(),
        "--spans-dir", str(target / "perfbench-spans"),
    ]
    # Peak RSS should measure what the gateway holds, not where glibc
    # happened to put it: with one arena per thread (fresh gateway threads
    # on every scan call) and a mmap threshold that moves as buffers are
    # freed, the same code read 13-39 MiB on scan_dense.
    run_env = dict(env, MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
    try:
        ran = subprocess.run(cmd, env=run_env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("the benchmark run timed out")
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
