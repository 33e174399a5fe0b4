#!/usr/bin/env python3
"""Builds the dsud system and its benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: anti-compute, paper-rounds-tcp, serve-mixed (see BENCHMARK.json).
Build output goes to $CARGO_TARGET_DIR (default .bench_build); scratch files
(the served data set, span traces, exact-counter records) go to
<target dir>/perfbench-work. The last line of stdout is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("perfbench: the dsud workspace sources are not here; run from a full checkout",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Pin the thread pool to the CPUs this process may run on (nproc).
    env.setdefault("DSUD_THREADS", str(len(os.sched_getaffinity(0))))

    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "dsud"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr so the result stays the last stdout line.
        status = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return status

    commit = "unknown"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, check=True).stdout.split()
        if os.path.samefile(top, root):
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--dsud", os.path.join(release, "dsud"),
           "--work-dir", os.path.join(target, "perfbench-work"),
           "--commit", commit]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
