#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/spread.py --runs 10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Each run is one ``bench/run.py`` process with its own seed (1..runs). For
every metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. ``--out`` writes the summary and every run's result as
JSON, which is how bench/baseline-trace0.json and baseline-trace1.json were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900,
                         cwd=run.ROOT)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(results: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for d in declared:
        values = [r["metrics"][d["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[d["name"]] = {"unit": d["unit"], "median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median if median else 0.0,
                              "bound": d.get("bound")}
    return summary


def main(argv=None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    report = {"machine": run.machine_info(), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workload or list(run.WORKLOADS):
        results = [one_run(workload, seed, args.seconds, args.trace)
                   for seed in range(1, args.runs + 1)]
        summary = summarize(results, declared)
        correct = all(r["correct"] and r["failed"] == 0 for r in results)
        print(f"{workload}: {len(results)} runs, all correct: {correct}")
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f" (bound {s['bound']:.2f})"
            print(f"  {name:<44} median {s['median']:>14.6g} {s['unit']:<10} "
                  f"spread {s['spread']:.4f}{bound}")
        report["workloads"][workload] = {"all_correct": correct, "summary": summary,
                                         "runs": results}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
