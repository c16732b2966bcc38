#!/usr/bin/env python3
"""Build the benchmark from source and run one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR, or `.bench_build/` at the repository root when that is
unset. Its standard output passes through unchanged: readable metric
lines, then one JSON result as the last line. Traced runs write their
spans under `.bench_out/`. A failed build exits non-zero without
printing a result.

The benchmark process is pinned to one CPU. In a closed loop with one
router worker the client and the worker never run at the same time, and
on a 2-vCPU KVM guest the wake-ups of a worker on the other CPU varied
from 0.2 to 4.9 ms per 256-query batch, which spread the throughput of
the same code from 34k to 74k queries/s between runs (pinned: within
about 10%).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print(f"run.py: build failed with exit code {built.returncode}", file=sys.stderr)
        return 2

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    cpu = min(os.sched_getaffinity(0))

    def pin() -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # unpinned runs still measure, only less steadily

    try:
        # On timeout the child is killed and waited for before the raise.
        ran = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
