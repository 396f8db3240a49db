#!/usr/bin/env python3
"""Build the benchmark from the repository sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (the library, the pmsched server binary and the workload
programs) into .bench_build/ at the repository root, then runs a workload.
The last line of stdout is the run's JSON result. Exits non-zero without a
result when the sources are missing or the build or run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("design-batch", "serve-mixed", "explore-sweep")
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                  "perfbench", "pmsched_server", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    os.chdir(ROOT)
    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=False).returncode)

    run_dir = os.path.join(".bench_build", "run")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ)
    # The in-process workloads run the library on one thread; the served one
    # sets its own lanes (see serve_mixed.cpp).
    env["PMSCHED_THREADS"] = "1"
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server", os.path.join(BUILD, "pmsched_server"),
           "--run-dir", run_dir]
    # Own process group, so a timeout also stops the server perfbench started.
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        sys.exit(child.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.stderr.write("run.py: workload did not finish within %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)


if __name__ == "__main__":
    main()
