#!/usr/bin/env python3
"""CI gate for BENCH_backends.json.

Fails when any constrained point regressed past a generous per-point
wall-clock ceiling, or produced an invalid schedule. The ceiling is
deliberately loose — CI runners are noisy, so this is a cliff detector
(the 10x constrained-vs-unconstrained gap the incremental power timeline
removed), not a tight perf pin; the JSON is uploaded as an artifact so
humans can track the actual trend.

Also fails when any point, constrained or not, reports a testing time
below its lower bound: both engines stop searching once they reach the
bound, so a broken bound would make that stop unsound.

Usage: check_bench_constrained.py BENCH_backends.json [--max-cpu-s 2.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", type=Path, help="BENCH_backends.json")
    parser.add_argument(
        "--max-cpu-s",
        type=float,
        default=2.5,
        help="per-point CPU ceiling in seconds (default: %(default)s)",
    )
    args = parser.parse_args()

    document = json.loads(args.json_path.read_text())
    constrained = document.get("constrained")
    if not constrained:
        print("FAIL: no 'constrained' section in", args.json_path)
        return 1

    failures = []
    for point in document.get("runs", []) + constrained:
        if "testing_time" not in point or "lower_bound" not in point:
            continue  # failed jobs carry no outcome
        if int(point["testing_time"]) < int(point["lower_bound"]):
            label = "/".join(
                str(point[key])
                for key in ("soc", "backend", "width", "variant")
                if key in point
            )
            failures.append(
                f"{label}: testing time {point['testing_time']} is below "
                f"the lower bound {point['lower_bound']}"
            )
    for point in constrained:
        label = "{soc}/{backend}/{variant}".format(**point)
        cpu_s = float(point["cpu_s"])
        line = f"  {label:45s} cpu {cpu_s:8.3f}s  T={point['testing_time']}"
        if not point.get("schedule_valid", False):
            failures.append(f"{label}: schedule_valid is false")
            line += "  INVALID"
        if cpu_s > args.max_cpu_s:
            failures.append(
                f"{label}: cpu {cpu_s:.3f}s exceeds the "
                f"{args.max_cpu_s:.1f}s ceiling"
            )
            line += "  OVER CEILING"
        print(line)

    if failures:
        print(f"FAIL: {len(failures)} check(s) out of bounds:")
        for failure in failures:
            print("  -", failure)
        return 1
    print(
        f"OK: {len(constrained)} constrained points within the "
        f"{args.max_cpu_s:.1f}s ceiling; no point below its lower bound"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
