#!/usr/bin/env python3
"""Build geoind and the benchmark from source and run one workload.

    python3 perfbench/run.py --workload protect-batch --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); scratch files (bundles, ledgers, traces) to .bench_run/.
The last stdout line is the result object; the metrics it carries are the
lists in BENCHMARK.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the result.
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "geoind", "--bin", "geoind"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"error: build failed: {' '.join(cmd)}")
    # A fresh build leaves hundreds of MB of dirty pages; flush them now,
    # or their writeback competes with the serve workload's fdatasyncs.
    os.sync()

    work = os.path.abspath(os.path.join(".bench_run", f"{args.workload}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = os.path.join(target, "release", "geoind-perfbench")
    # Its own process group, so a timeout also stops the servers it spawned.
    proc = subprocess.Popen(
        [bench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--geoind", os.path.join(target, "release", "geoind"), "--work", work],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    # Two builds of the bundle plus sampling for up to twice --seconds,
    # and a traced run does more work after the load.
    timeout = 120 + 5 * args.seconds + (30 if args.trace == "1" else 0)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("error: benchmark timed out")
    # Keep the latest trace of each workload; drop ledgers and bundles.
    traces = os.path.join(".bench_run", "traces")
    os.makedirs(traces, exist_ok=True)
    for name in os.listdir(work):
        if name.startswith("trace-"):
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"error: benchmark exited {proc.returncode}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
