#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json N times, each in a fresh process with
another seed, and print per end-to-end metric the median, the quartiles, the
spread (IQR / median) and pass/fail against the metric's bound.

    python3 perfbench/repeat.py                       # 10 runs per workload (~20 min)
    python3 perfbench/repeat.py --runs 1 --trace      # everything once, with the per-layer ledger
    python3 perfbench/repeat.py --save a.json         # keep the set
    python3 perfbench/repeat.py --seed 101 --against a.json   # a second set, compared with the first

Run from the repository root. Run i of every workload is made before run
i + 1 of any, so a neighbour's busy minute on the shared box lands on one run
of each workload, not on one workload's whole set. The spread is computed as
the driver computes it: statistics.quantiles(values, n=4). A metric passes
when its spread is within its bound (the target when sizing the benchmark is
a third of that) and, with --against, when its median is no worse than the
other set's by more than the bound. Exits 1 if a run fails its oracle or a
metric fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that belong to the workload named on the command line;
# every other one is the same measurement whichever workload is named, and its
# record is the node-small traced run (see README.md).
OF_THE_NAMED_WORKLOAD = {
    "transport.frames_per_op", "transport.bytes_per_op", "transport.mac_rejected",
    "ab.batch_commands_mean", "ab.agreements_per_op", "ab.flush_size_share",
    "ab.flush_age_share", "ab.flush_idle_share", "bc.rounds_max", "bench.trace_overhead_pct",
}
RECORD_WORKLOAD = "node-small"


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)}: exit code {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return lines[:-1], result["metrics"]


def print_traced(workload, lines, metrics, units):
    """The whole traced run of the record workload (ledger table and every
    per-layer metric); of the others, only the named workload's own metrics."""
    if workload == RECORD_WORKLOAD:
        print(f"\n## per-layer, traced run of {workload}: the record of every per-layer metric")
        print("\n".join(lines))
        return
    print(f"\n## per-layer, traced run of {workload}: its own metrics (the others are recorded under {RECORD_WORKLOAD})")
    for name in sorted(OF_THE_NAMED_WORKLOAD & metrics.keys(), key=list(metrics).index):
        print(f"  {name:<32}{metrics[name]['value']:>16.4f} {units[name]}")


def worse_by(metric, median, other):
    """Share by which `median` is worse than `other`; negative when better."""
    change = (median - other) / other
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run; run i uses seed + i")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--trace", action="store_true", help="also one traced run per workload")
    ap.add_argument("--save", metavar="FILE", help="write the set's values to FILE as JSON")
    ap.add_argument("--against", metavar="FILE", help="compare this set's medians with a saved set's")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seconds = bench["run_seconds"]
    other = None
    if args.against:
        with open(args.against) as f:
            other = json.load(f)

    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in names}
    for i in range(args.runs):
        for workload in names:
            _, metrics = run(bench["command"], workload, args.seed + i, seconds, 0)
            for name, m in metrics.items():
                values[workload][name].append(m["value"])
            print(f"run {i + 1}/{args.runs} of {workload} done", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)

    ok = True
    head = "| workload | metric | unit | median | q1 | q3 | IQR/median | bound | |"
    if other:
        head += " other set's median | worse by | |"
    print(head)
    print("|" + "---|" * (head.count("|") - 1))
    for workload in names:
        for metric in bench["end_to_end"]:
            v = values[workload][metric["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (median,) * 3
            spread = (q3 - q1) / median
            verdict = "pass" if spread <= metric["bound"] else "FAIL"
            ok &= verdict == "pass"
            row = (f"| {workload} | {metric['name']} | {metric['unit']} | {median:.5g} | {q1:.5g} | {q3:.5g} "
                   f"| {spread:.4f} | {metric['bound']} | {verdict} |")
            if other:
                theirs = statistics.median(other[workload][metric["name"]])
                worse = worse_by(metric, median, theirs)
                verdict = "pass" if worse <= metric["bound"] else "FAIL"
                ok &= verdict == "pass"
                row += f" {theirs:.5g} | {worse:+.4f} | {verdict} |"
            print(row, flush=True)

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        # The record workload first, so the shared metrics are printed once, on top.
        for workload in sorted(names, key=lambda w: w != RECORD_WORKLOAD):
            lines, metrics = run(bench["command"], workload, args.seed, seconds, 1)
            print_traced(workload, lines, metrics, units)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
