#!/usr/bin/env python3
"""Build and run one workload of the rotsv benchmark (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 20 --trace 0

It builds the benchmark package (perfbench/Cargo.toml) and the shipped
rotsv-server binary from source into $CARGO_TARGET_DIR (default
.bench_build), then runs the workload in its own process. The workload
prints one line per metric with its unit, and as its last line the result
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when the run completed; a failed output check shows as
"correct": false with the failures counted in "failed".
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper_figs", "wafer_sweep", "single_die", "screen_service")
# A run must end within 180 s; the workload itself gets what is left
# after the build.
RUN_LIMIT_S = 170


def build(env):
    """Build the benchmark and the daemon; cargo's output goes to stderr."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "rotsv-server", "--bin", "rotsv-server"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The benchmark builds the repository's crates from this checkout.
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "core"))):
        print("run.py: run from the root of a rotsv checkout (crates/ not found)",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 3
    release = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release")
    cmd = [
        os.path.join(release, "perfbench"), args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(release, "rotsv-server"),
    ]
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
