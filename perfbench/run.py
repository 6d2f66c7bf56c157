#!/usr/bin/env python3
"""Build chain2l and its benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cold_batch|hot_serve|zipf_serve> \
        --seed <n> --seconds <s> --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default: .bench_build at the repository
root).  The last line of standard output is the JSON result; build output
goes to standard error.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("cold_batch", "hot_serve", "zipf_serve")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources that make up the program and the benchmark."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        ]
        for f in sorted(files):
            if f.endswith((".rs", ".toml")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def command_output(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def build(env):
    for argv in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "chain2l-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(argv)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "crates/service/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full chain2l checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    git_rev = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        git_rev = command_output(["git", "rev-parse", "HEAD"]) or "unknown"
    env.update(
        PERFBENCH_GIT_REV=git_rev,
        PERFBENCH_SOURCE_DIGEST=source_digest(),
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]) or "unknown",
        PERFBENCH_TRACE_DIR=os.path.join(target, "perfbench-traces"),
    )
    release = os.path.join(target, "release")
    argv = [
        os.path.join(release, "chain2l-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin", os.path.join(release, "chain2l"),
    ]
    # A session of its own, so a timeout can stop the benchmark together
    # with the daemon and shard processes it started.
    child = subprocess.Popen(argv, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
