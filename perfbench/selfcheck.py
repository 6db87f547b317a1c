#!/usr/bin/env python3
"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

Runs every workload briefly through perfbench/run.py, twice untraced with
one seed and once traced, and checks that:

  * every run exits 0 with `correct: true` and `failed: 0`;
  * each result carries exactly the metrics BENCHMARK.json lists for its
    mode (end_to_end untraced, per_layer traced), with their units;
  * every reported latency percentile has at least 10 samples beyond it
    (the client refuses to print one that has not, so a run too short
    for its tail fails here);
  * the exact metrics (testing_time_cycles, lower_bound_share) repeat bit
    for bit between the two runs of the seed;
  * serve_hits' timed requests were all cache hits.

It prints each workload's tracing overhead (traced against untraced end
to end) and exits nonzero on the first failed check.
"""

import argparse
import json
import math
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("solve_cold", "serve_hits")
# Brief, but long enough for each workload's tail percentile: solve_cold
# needs 100 answers for p90 (one pass of 9 rounds of 12 points, which it
# always completes whatever --seconds says), serve_hits 100 per slice for
# its sliced p90 (2 s).
QUICK_ROUNDS = {"solve_cold": 9}
QUICK_SECONDS = 2
EXACT = ("testing_time_cycles", "lower_bound_share")


def run(workload, seed, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(QUICK_SECONDS),
               "--trace", str(trace)]
    if workload in QUICK_ROUNDS:
        command += ["--rounds", str(QUICK_ROUNDS[workload])]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"selfcheck: {workload} trace={trace} exited {done.returncode}")
    return lines, json.loads(lines[-1])


def check_tails(workload, lines):
    """Every latency line names its percentile and states its sample count
    (`metric latency_p90_ms = X ms  (N requests in S s, median of K slices)`
    or `(..., best of P passes per point of M points)`)."""
    for line in lines:
        match = re.match(r"metric \S*latency_p(\d+)_ms = \S+ ms\s+\((.*)\)", line)
        if not match:
            continue
        quantile = int(match.group(1)) / 100
        note = match.group(2)
        samples = int(re.search(r"(\d+) requests", note).group(1))
        sliced = re.search(r"median of (\d+) slices", note)
        if sliced:  # each slice's percentile needs its own support
            samples //= int(sliced.group(1))
        points = re.search(r"of (\d+) points", note)
        if points:  # one fastest answer per point
            samples = int(points.group(1))
        beyond = samples - math.ceil(quantile * samples)
        if beyond < 10:
            sys.exit(f"selfcheck: {workload} p{quantile * 100:.0f} has only "
                     f"{beyond} samples beyond it")


def check_metrics(workload, result, spec_metrics):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"selfcheck: {workload} run not correct: {result}")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        sys.exit(f"selfcheck: {workload} metrics differ from BENCHMARK.json: "
                 f"missing {missing}, extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        first_lines, first = run(workload, args.seed, 0)
        _, second = run(workload, args.seed, 0)
        traced_lines, traced = run(workload, args.seed, 1)
        for lines, result, metrics in ((first_lines, first, spec["end_to_end"]),
                                       (None, second, spec["end_to_end"]),
                                       (traced_lines, traced, spec["per_layer"])):
            check_metrics(workload, result, metrics)
            if lines:
                check_tails(workload, lines)
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                sys.exit(f"selfcheck: {workload} {name} differs between runs of "
                         f"seed {args.seed}: {a!r} vs {b!r}")
        if workload == "serve_hits" and traced["metrics"]["cache.hit_share"]["value"] != 1.0:
            sys.exit("selfcheck: serve_hits timed requests were not all cache hits")
        m0, m1 = first["metrics"], traced["metrics"]
        rps = 1 - m1["trace.throughput_rps"]["value"] / m0["throughput_rps"]["value"]
        p50 = m1["trace.latency_p50_ms"]["value"] / m0["latency_p50_ms"]["value"] - 1
        print(f"selfcheck: {workload}: ok (exact metrics repeat; tracing overhead: "
              f"throughput {rps:+.1%}, p50 latency {p50:+.1%})")
    print("selfcheck: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
