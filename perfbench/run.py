#!/usr/bin/env python3
"""Builds the AggChecker benchmark from source and runs a workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: article_check, table6_check, fleet, ingest_recheck (see
perfbench/WORKLOADS.md), or `all` to run the four one after another.
BENCHMARK.json lists the first two; fleet and ingest_recheck are run by
hand. The seed defaults to 42, the measuring time to 35 s (BENCHMARK.json's
run_seconds), tracing to off.

The benchmark is configured and built as a Release CMake project into
$CARGO_TARGET_DIR/perfbench (default .bench_build), then the benchmark binary
runs with the given arguments. Its standard output is passed through; the
last line of each workload's output is its JSON result. Snapshots and span
dumps go to .bench_out/ and are removed or overwritten by later runs.

Exits non-zero without a result when the build fails, for instance when
the library sources under src/ are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("article_check", "table6_check", "fleet", "ingest_recheck")
# A run sets up (input generation, set-up repeats, priming and audits take
# up to about 50 s at the default sizes) and then measures for --seconds,
# often a pass longer; the traced run times each request twice. At
# --seconds 35 the limit is 160 s, so a run that hangs is stopped before
# three minutes have passed.
SETUP_ALLOWANCE_S = 90
BUILD_TYPE = "Release"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    """The git commit, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cached_build_type(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return None


def build(root, build_dir):
    """Configures (when needed) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if cached_build_type(build_dir) != BUILD_TYPE:
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", default=42, type=int)
    parser.add_argument("--seconds", default=35.0, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 1

    stamp = ["--out-dir", os.path.join(root, ".bench_out"),
             "--commit", commit_id(root),
             "--source-digest", source_digest(root)]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace] + stamp
        code = run_binary(cmd, root, SETUP_ALLOWANCE_S + 2 * args.seconds)
        if code != 0:
            log(f"{workload} exited with {code}")
            status = code
    return status


def run_binary(cmd, root, timeout_s):
    """Runs the benchmark binary to its end or timeout; returns its code."""
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout_s:g} s; stopping it")
        proc.kill()
        proc.wait()
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
