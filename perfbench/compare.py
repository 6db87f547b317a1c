#!/usr/bin/env python3
"""Compares two benchmark result sets, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RUNS.jsonl      # spread of one set

Each file holds the tagged results `perfbench/run.py --out FILE` appends,
any number of runs per workload and seed. For every workload and every
metric (end-to-end from --trace 0 runs, per-layer from --trace 1 runs) it
prints each side's median and quartiles, as statistics.quantiles(n=4)
gives them, and the change's delta from the base median, signed so that
positive is better. An end-to-end metric reads:

  better / worse   the delta is beyond the bound in BENCHMARK.json
  within bound     it is not
  unresolved       either side's spread (quartile distance over median)
                   exceeds the bound, unless every change run beats
                   every base run

Per-layer metrics have no bound; a delta smaller than the wider side's
spread reads "unresolved". Each set's tracing overhead per workload, the
traced run's end-to-end numbers against the untraced run's, closes the
report.

Given one file, it prints each metric's median, quartiles and spread
instead, and marks an end-to-end metric whose spread exceeds its bound
("over bound") or a third of it ("noisy").
"""

import argparse
import collections
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layers


def load_runs(path):
    """{(workload, trace): {metric: [values]}}"""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, metric in record["result"]["metrics"].items():
            runs[(record["workload"], record["trace"])][name].append(metric["value"])
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def judge(base, change, better, bound):
    _, base_median, _ = summary(base)
    _, change_median, _ = summary(change)
    sign = 1 if better == "higher" else -1
    delta = sign * (change_median - base_median) / abs(base_median) if base_median else 0.0
    wider = max(spread(base), spread(change))
    if better == "higher":
        dominates = min(change) > max(base) or max(change) < min(base)
    else:
        dominates = max(change) < min(base) or min(change) > max(base)
    if bound is None:
        verdict = "unresolved" if abs(delta) <= wider and not dominates else (
            "better" if delta > 0 else "worse")
    elif wider > bound and not dominates:
        verdict = "unresolved"
    elif delta > bound:
        verdict = "better"
    elif delta < -bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return delta, verdict


def fmt(values):
    q1, median, q3 = summary(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def overhead(runs, workload):
    plain = runs.get((workload, 0), {})
    traced = runs.get((workload, 1), {})
    out = []
    for plain_name, traced_name, better in (
            ("throughput_rps", "trace.throughput_rps", "higher"),
            ("latency_p50_ms", "trace.latency_p50_ms", "lower")):
        if plain.get(plain_name) and traced.get(traced_name):
            p = statistics.median(plain[plain_name])
            t = statistics.median(traced[traced_name])
            cost = (p - t) / p if better == "higher" else (t - p) / p
            out.append(f"{plain_name} {cost:+.1%}")
    return ", ".join(out) if out else "n/a (needs --trace 0 and --trace 1 runs)"


def spreads(runs, e2e, layers):
    for workload, trace in sorted(runs):
        spec = e2e if trace == 0 else layers
        kind = "end-to-end" if trace == 0 else "per-layer"
        print(f"== {workload} · {kind}")
        for name in spec:
            values = runs[(workload, trace)].get(name)
            if not values:
                continue
            bound = spec[name].get("bound")
            width = spread(values) if len(values) > 1 else 0.0
            verdict = ""
            if bound is not None:
                verdict = ("over bound" if width > bound else
                           "noisy" if width > bound / 3 else "ok")
                verdict = f" bound {bound:.0%}  {verdict}"
            print(f"  {name:34s} {fmt(values)}  spread {width:.3f}{verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args()
    e2e, layers = load_spec()
    if args.change is None:
        spreads(load_runs(args.base), e2e, layers)
        return 0
    base, change = load_runs(args.base), load_runs(args.change)

    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    for workload in workloads:
        for trace, spec in ((0, e2e), (1, layers)):
            b, c = base.get((workload, trace), {}), change.get((workload, trace), {})
            if not b and not c:
                continue
            kind = "end-to-end" if trace == 0 else "per-layer"
            print(f"== {workload} · {kind}")
            for name in spec:
                if not b.get(name) or not c.get(name):
                    continue
                bound = spec[name].get("bound")
                delta, verdict = judge(b[name], c[name], spec[name]["better"], bound)
                bound_text = f" bound {bound:.0%}" if bound is not None else ""
                print(f"  {name:34s} base {fmt(b[name])}  change {fmt(c[name])}"
                      f"  delta {delta:+.2%}{bound_text}  {verdict}")
    print("== tracing overhead (traced run vs untraced run, medians)")
    for label, runs in (("base", base), ("change", change)):
        for workload in workloads:
            print(f"  {label:6s} {workload:13s} {overhead(runs, workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
