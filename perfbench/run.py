#!/usr/bin/env python3
"""Host-time benchmark of the LXFI simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload netperf --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune, runs it, checks that its result
line carries exactly the metrics BENCHMARK.json declares for the chosen
--trace mode, and prints that line as the last line of standard output.
Exits non-zero without a result line when the checkout is incomplete or
the build or the run fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# The first run in a fresh checkout compiles the whole simulator.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out, err


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # The shared dune cache lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + [
        "build", "--root", ".", "-j", "2", "--display", "quiet", "./perfbench/perfbench.exe"
    ]
    try:
        code, out, err = run(cmd, BUILD_TIMEOUT_S, env)
    except OSError as e:
        fail(f"cannot run dune: {e}")
    if code != 0:
        sys.stderr.write(out + err)
        fail("build failed")


def check(result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if type(result["attempted"]) is not int or type(result["failed"]) is not int:
        fail("attempted and failed must be whole numbers")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    want = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(want):
        fail(f"metrics {sorted(metrics)} differ from the declared {sorted(want)}")
    for name, unit in want.items():
        m = metrics[name]
        value = m.get("value")
        if m.get("unit") != unit or isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"metric {name} is malformed: {m}")


def main():
    parser = argparse.ArgumentParser(description="Host-time benchmark of the LXFI simulator")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("dune-project and lib/ not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build()
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    code, out, err = run(cmd, RUN_TIMEOUT_S)
    sys.stderr.write(err)
    if code != 0:
        fail(f"perfbench.exe exited with code {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench.exe printed no result line")
    check(result, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
