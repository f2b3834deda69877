#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark over seeds and compare spreads.

    python3 bench/steady.py --runs 10 --seed 1 [--seed2 1001] [--out FILE]

Runs `bench/run.py --trace 0` `--runs` times on each workload of
BENCHMARK.json, with seeds seed, seed+1, ...; with `--seed2`, a second
series follows from seed2, seed2+1, ...  For each end-to-end metric it
prints the spread of a series, the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
against the metric's bound; and with two series, how much worse the second
median is than the first.  A later claim can so be re-checked on a seed
series it was not tuned on.  `--trace-runs K` adds K traced runs per
workload, whose per-layer metrics go into the record written by `--out`.

Exits 1 if a run fails its checks, a spread exceeds its bound, or the
second series is worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def compact(series, workload, seed, summary, result):
    """One run's entry in the record: its metrics and unscaled medians."""
    return {"series": series, "workload": workload, "seed": seed,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wall_medians": {k: v["median"]
                             for k, v in summary["wall"].items()}}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seed2", type=int, default=None,
                        help="first seed of a second series")
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None, help="JSON record to write")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    starts = [args.seed] + ([args.seed2] if args.seed2 is not None else [])

    record = {"seconds": seconds, "runs": [], "traced": []}
    values = {}   # (series, workload, metric) -> [values]
    bad = []
    for series, first in enumerate(starts):
        for i in range(args.runs):
            for workload in workloads:
                summary, result = run_once(workload, first + i, seconds, 0)
                record["stamp"] = summary["stamp"]
                record["runs"].append(compact(series, workload, first + i,
                                              summary, result))
                if not result["correct"]:
                    bad.append(f"{workload} seed {first + i}: "
                               f"{summary['failures']}")
                for m in metrics:
                    value = result["metrics"][m["name"]]["value"]
                    values.setdefault((series, workload, m["name"]),
                                      []).append(value)
                shown = dict(result["metrics"],
                             fail_ratio=summary["fail_ratio"])
                print(f"series {series} seed {first + i} {workload}: "
                      + ", ".join(f"{k} {v['value']:.5g} {v['unit']}"
                                  for k, v in shown.items()),
                      flush=True)
    for i in range(args.trace_runs):
        for workload in workloads:
            summary, result = run_once(workload, args.seed + i, seconds, 1)
            record["traced"].append(compact(None, workload, args.seed + i,
                                            summary, result))

    print(f"\n{'workload':20s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s):>11s} {'spread' + str(s):>8s}"
                     for s in range(len(starts)))
          + ("  worse" if len(starts) == 2 else ""))
    table = []
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = {"workload": workload, "metric": name, "bound": bound}
            cells = []
            for s in range(len(starts)):
                vals = values[(s, workload, name)]
                row[f"median{s}"] = statistics.median(vals)
                row[f"spread{s}"] = spread(vals)
                cells.append(f"{row[f'median{s}']:11.5g} "
                             f"{row[f'spread{s}']:8.4f}")
                if row[f"spread{s}"] > bound:
                    bad.append(f"{workload} {name}: spread "
                               f"{row[f'spread{s}']:.4f} > bound {bound}")
            line = f"{workload:20s} {name:12s} {bound:6.3f} " + " ".join(cells)
            if len(starts) == 2:
                row["worse"] = worse_by(values[(0, workload, name)],
                                        values[(1, workload, name)],
                                        m["better"])
                line += f" {row['worse']:+.4f}"
                if row["worse"] > bound:
                    bad.append(f"{workload} {name}: second series worse by "
                               f"{row['worse']:.4f} > bound {bound}")
            table.append(row)
            print(line)
    record["table"] = table
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    for problem in bad:
        print("FAIL", problem)
    print("steady:", "FAIL" if bad else "OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
