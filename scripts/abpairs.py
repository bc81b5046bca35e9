#!/usr/bin/env python3
"""Alternating A/B benchmark pairs of two source trees, written as BENCH_<n>.json.

    python3 scripts/abpairs.py PARENT_ROOT CHANGE_ROOT --workload W [--workload W2 ...]
                               [--pairs 10]

PARENT_ROOT and CHANGE_ROOT are two checkouts (or exports) of the repository,
typically the parent commit and the change. Each run is one
``python3 bench/run.py --workload W --seed 1`` process started in that
tree's own root, so each side measures itself with its own benchmark code,
for bench/run.py's default run length. Pairs alternate which side runs
first: odd pairs the parent, even pairs the change. The record of a run is
the ``bench/out/<w>-seed1-trace0.json`` that run wrote, plus its pair
number; nothing under ``bench/`` is edited.

The output, the next free BENCH_<n>.json in CHANGE_ROOT, has the layout of
BENCH_6.json and BENCH_7.json: a description, the command, the parent
commit, the machine (both as the parent's first run recorded them), and per
workload a summary (per end-to-end metric of BENCHMARK.json: each side's
median and quartiles, ``statistics.quantiles(values, n=4)`` with its default
exclusive method as in bench/spread.py, the ratio of the medians and the
number of pairs in which the change reads better, ties counting for neither
side) and every run. The record names its quartile method in
``quartile_method``: BENCH_6.json and BENCH_7.json, written before this
script, used ``method="inclusive"``, which gives a narrower spread.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800
SEED = 1
QUARTILE_METHOD = "exclusive"  # statistics.quantiles' default, as in bench/spread.py


def one_run(root: Path, workload: str) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL,
                   timeout=RUN_TIMEOUT_S)
    out = root / "bench" / "out" / f"{workload}-seed{SEED}-trace0.json"
    return json.loads(out.read_text())


def summarize(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for d in declared:
        name, higher = d["name"], d["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        better = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
        p_med, c_med = statistics.median(p), statistics.median(c)
        summary[name] = {
            "parent_median": p_med,
            "parent_quartiles": quartiles(p),
            "change_median": c_med,
            "change_quartiles": quartiles(c),
            "change_over_parent": c_med / p_med if p_med else None,
            "change_better_pairs": better,
            "pairs": len(p),
        }
    summary["all_correct"] = all(r["correct"] for r in parent + change)
    return summary


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method=QUARTILE_METHOD)
    return [q1, q3]


def next_bench_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for side, root in roots.items():
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{side} root {root} has no bench/run.py")
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    out_path = next_bench_path(roots["change"])

    runs = {}
    summary = {}
    for workload in args.workload:
        runs[workload] = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                record = one_run(roots[side], workload)
                record["pair"] = pair
                runs[workload][side].append(record)
                value = record["metrics"].get("sim_krpc_per_ref_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: sim_krpc_per_ref_s {value}, "
                      f"correct {record['correct']}", flush=True)
        summary[workload] = summarize(runs[workload]["parent"], runs[workload]["change"],
                                      declared)
        s = summary[workload]["sim_krpc_per_ref_s"]
        print(f"{workload}: sim_krpc_per_ref_s {s['parent_median']:.3f} -> "
              f"{s['change_median']:.3f} ({s['change_over_parent']:.3f}x), change better in "
              f"{s['change_better_pairs']}/{s['pairs']} pairs", flush=True)

    machine = dict(runs[args.workload[0]]["parent"][0]["machine"])
    parent_commit = machine.pop("git_sha", "unknown")
    machine.pop("loadavg_at_start", None)
    report = {
        "description": (
            f"bench/run.py --workload <w> at its default run length, trace 0, seed {SEED}; "
            "each side runs its own tree's bench/run.py; pairs alternate which side runs "
            "first (odd pairs parent first); quartiles are statistics.quantiles(n=4, "
            f"method={QUARTILE_METHOD!r}). "
            f"Each run is the bench/out/<w>-seed{SEED}-trace0.json that run wrote."),
        "command": "python3 bench/run.py --workload <workload>",
        "quartile_method": QUARTILE_METHOD,
        "parent_commit": parent_commit,
        "machine": machine,
        "summary": summary,
        "runs": runs,
    }
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
