#!/usr/bin/env python3
"""Compare two result sets of the benchmark: parent vs change.

Run alternated pairs (pair i runs the parent first when i is even, the change
first when it is odd), with this tree's benchmark code on both sides:

    python3 perfbench/compare.py pairs PARENT_ROOT CHANGE_ROOT --workload train-b32 \\
        --out perfbench/out/compare

It runs the 10 pairs a gain needs (`rules.GAIN_MIN_PAIRS`), pair i on seed i + 1.

Then report, one row per workload, a verdict per end-to-end metric of
BENCHMARK.json:

    python3 perfbench/compare.py report perfbench/out/compare/parent perfbench/out/compare/change

Runs pair up by (workload, seed). The verdict rule is `rules.compare_metric`:
"gain" needs at least 10 pairs, 9/10 pair wins and a median difference larger
than the parent's interquartile spread; a metric whose spread is wider than its bound
is "unresolved" unless every change run beats every parent run; a change worse
than the parent's median by more than the bound is a "regression". A metric
missing from a run (it had no samples, so the run failed) gets no verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from rules import GAIN_MIN_PAIRS, compare_metric

HERE = Path(__file__).resolve().parent
SHORT = {"gain": "GAIN", "within bound": "=", "regression": "REGRESSION", "unresolved": "unresolved",
         "no gain: more failures": "void", "no gain: too few pairs": "few pairs"}


def load_results(directory):
    """{workload: {seed: result}} for the untraced result files in `directory`."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        out.setdefault(result["workload"], {})[result["seed"]] = result
    return out


def compare_sets(parent, change, spec):
    """Per workload: pairs, alternation, failures and a verdict per metric."""
    report = {}
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        entry = {
            "pairs": len(seeds),
            "parent_first": sum(1 for p, c in zip(p_runs, c_runs) if p["started_at"] < c["started_at"]),
            "parent_failed": sum(r["failed"] for r in p_runs),
            "change_failed": sum(r["failed"] for r in c_runs),
            "metrics": {},
        }
        if len(seeds) >= 2:
            for m in spec["end_to_end"]:
                if any(m["name"] not in r["metrics"] for r in p_runs + c_runs):
                    continue
                entry["metrics"][m["name"]] = compare_metric(
                    [r["metrics"][m["name"]]["value"] for r in p_runs],
                    [r["metrics"][m["name"]]["value"] for r in c_runs],
                    m["better"], m["bound"], entry["parent_failed"], entry["change_failed"],
                )
        report[workload] = entry
    return report


def print_report(report, spec):
    names = [m["name"] for m in spec["end_to_end"]]
    print("workload | pairs | parent ran first | failed parent/change | " + " | ".join(names))
    for workload, e in report.items():
        cells = [SHORT[e["metrics"][n]["verdict"]] if n in e["metrics"] else "n/a" for n in names]
        print(f"{workload} | {e['pairs']} | {e['parent_first']} | {e['parent_failed']}/{e['change_failed']} | "
              + " | ".join(cells))
    for workload, e in report.items():
        print(f"\n[{workload}]")
        if e["pairs"] < 2:
            print("  fewer than 2 pairs: nothing to compare")
        elif abs(2 * e["parent_first"] - e["pairs"]) > 1:
            print("  warning: pairs were not alternated")
        for name, r in e["metrics"].items():
            pq, cq = r["parent_quartiles"], r["change_quartiles"]
            print(f"  {name:<20} {r['verdict']:<24} parent {r['parent_median']:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {r['change_median']:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  wins {r['wins']}/{r['pairs']}  spread {100 * r['relative_spread']:.1f}%"
                  f"  bound {100 * r['bound']:.0f}%")


def run_pairs(args, spec):
    """Both sides run for BENCHMARK.json's run_seconds."""
    seconds = spec["run_seconds"]
    out = Path(args.out).resolve()
    sides = {"parent": Path(args.parent_root).resolve(), "change": Path(args.change_root).resolve()}
    for i in range(GAIN_MIN_PAIRS):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--out", str(out / side)]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"pair {i} seed {seed} {side}: exit {proc.returncode} {last[0][:120]}")
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("report", help="compare two directories of result files")
    r.add_argument("parent")
    r.add_argument("change")
    q = sub.add_parser("pairs", help="run alternated parent/change pairs")
    q.add_argument("parent_root")
    q.add_argument("change_root")
    q.add_argument("--workload", required=True)
    q.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.command == "pairs":
        return run_pairs(args, spec)
    report = compare_sets(load_results(args.parent), load_results(args.change), spec)
    print_report(report, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
