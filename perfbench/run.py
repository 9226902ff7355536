#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compress --seed 1 --seconds 10 --trace 0

Workloads: compress, evaluate and serve_bulk are gated (BENCHMARK.json says
why each is there); serve is a diagnostic workload (README.md says why it
is not gated). `--trace 1` adds the layer-timed run. Development seed:
1. Held-out seed, for checking a claim on inputs it was not tuned on: 7919.

The build is fixed: the shipped `sgd` daemon from the workspace and the
`perfbench` binary of this package, both `cargo build --release --offline` into
CARGO_TARGET_DIR (default `.bench_build`). Pool threads are pinned to the
number of CPUs this process may run on (SG_PAR_THREADS), for `sgd` too.
The last stdout line is the JSON result; build output goes to stderr.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env["SG_PAR_THREADS"] = str(len(os.sched_getaffinity(0)))
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "sg-apps", "--bin", "sgd"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--sgd", os.path.join(release, "sgd"),
           "--out", os.path.join(target, "perfbench")]
    # Own process group, so any daemon left behind by a crash is killed too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
