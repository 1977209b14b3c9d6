#!/usr/bin/env python3
"""Run the benchmark on every workload and print a table of its metrics.

    python3 bench/report.py                          # seed 1, untraced, 40 s
    python3 bench/report.py --seeds 1-10 --workloads tree-route
    python3 bench/report.py --trace 1

Each (workload, seed) is one ``run.py`` process. The table gives, per
workload and metric, the unit, the median over the seeds, with four or
more seeds the spread (Q3 - Q1) / median of ``statistics.quantiles``, and
every run's value in seed order.
It also prints error_rate, the tail percentile used and the failure kinds,
so the known failures are visible next to the timings.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        values = collections.defaultdict(list)
        units = {}
        kinds = collections.Counter()
        tails = set()
        correct = True
        for seed in args.seeds:
            report, result = run_one(workload, seed, args.seconds, args.trace)
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
                units[name] = m["unit"]
            values["error_rate"].append(report["error_rate"]["value"])
            units["error_rate"] = "ratio"
            for name, value in report.get("as_measured", {}).items():
                values[f"as_measured.{name}"].append(value)
                units[f"as_measured.{name}"] = units.get(name, "1/s")
            tails.add(report.get("tail_percentile"))
            kinds.update(f"{f['kind']}:{f['verb']}:p={f['p']:g}"
                         for f in report["failures"])
        print(f"\n{workload}  seeds={args.seeds[0]}..{args.seeds[-1]} "
              f"({len(args.seeds)})  correct={correct}"
              + (f"  tail percentile={sorted(tails)}" if not args.trace else ""))
        for name, vals in values.items():
            spread = (f"{metrics.quartile_spread(vals):8.3f}"
                      if len(vals) >= 4 else "       -")
            print(f"  {name:42s} {units[name]:>13s} "
                  f"{statistics.median(vals):14.6g} {spread}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        for kind, count in sorted(kinds.items()):
            print(f"  failures {kind}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
