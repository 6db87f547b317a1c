#!/usr/bin/env python3
"""Runs one benchmark workload against the repository built from source.

    python3 perfbench/run.py --workload solve_cold|serve_hits \
        --seed N --seconds S --trace 0|1 [--out results.jsonl] [--rounds N]

Run from the repository root. The first run configures and builds the
repository's wtam_serve and wtam_router plus the benchmark client
(perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR, default .bench_build;
later runs rebuild incrementally. Build output goes to stderr. The client
prints `info` and `metric` lines and, last, one JSON result line, which
this script passes through; with --out it also appends that result, tagged
with workload, seed, seconds, trace and the run's `info` lines (the input
shares a claim must cite), to a JSON-lines file that perfbench/compare.py
reads. Both workloads time --seconds; solve_cold always completes one
whole pass of its distinct points first, and --rounds shortens that pass
for brief runs. The exit status is the client's (0 =
every answer correct); a missing source tree or a failed build exits 2
without a result line.
"""

import argparse
import ctypes
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve_cold", "serve_hits")
# Leaves the client's own 170 s alarm room to fire first.
CLIENT_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def become_subreaper():
    """Makes orphaned grandchildren (servers of a client that died) ours to reap."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_group(pgid):
    """Kills what is left of the process group and waits until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        reap_orphans()
        time.sleep(0.05)
    fail(f"process group {pgid} did not end")


def build_root():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no wtam source tree next to {HERE.name}/ (looked in {ROOT})")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(f"cmake could not configure {HERE.name}/CMakeLists.txt "
                 "(its output is above; it needs CMake >= 3.24 and a C++20 "
                 "compiler, nothing else)")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the tagged result to this JSON-lines file")
    parser.add_argument("--rounds", type=int,
                        help="solve_cold: rounds of 12 points in its pass "
                             "(default 24)")
    args = parser.parse_args()

    build_dir = build_root() / "perfbench"
    work_dir = build_root() / "perfbench-work"
    build(build_dir)
    become_subreaper()
    work_dir.mkdir(parents=True, exist_ok=True)

    command = [str(build_dir / "perfbench_client"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", str(build_dir / "wtam"), "--work-dir", str(work_dir)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    # The client and the servers it spawns share one process group, so
    # nothing outlives the run even if the client dies mid-way.
    client = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = client.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(client.pid, signal.SIGKILL)
        client.communicate()
        stop_group(client.pid)
        fail(f"client exceeded {CLIENT_TIMEOUT_S} s")
    stop_group(client.pid)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    if args.out and lines and client.returncode in (0, 1):
        info = dict(line[5:].split(" = ", 1) for line in lines
                    if line.startswith("info ") and " = " in line)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "rounds": args.rounds, "trace": args.trace,
                  "info": info, "result": json.loads(lines[-1])}
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    sys.exit(client.returncode)


if __name__ == "__main__":
    main()
