#!/usr/bin/env python3
"""Diff BENCH_micro.json runs and print a speedup table.

Usage:
    tools/bench_compare.py OLD.json NEW.json [--fail-below RATIO]
                           [--filter SUBSTRING ...]

OLD and NEW may each name several runs, comma-separated
(A1.json,A2.json,A3.json).

Each input is the flat JSON array bench_micro emits (see bench/bench_micro.cpp):
    [{"name": ..., "n": ..., "reps": ..., "ns_per_op": ...,
      "propagations_per_sec": ...}, ...]

Benchmarks are matched by name. With several files per side, each
benchmark's ns_per_op and propagations_per_sec are the medians over that
side's files, so one slow run on a shared machine does not decide the
comparison; a benchmark counts as present on a side only when every file
of that side has it. The speedup column is old/new for
ns_per_op (higher is better; 1.10x means the new run is 10% faster) and
new/old for propagations_per_sec where both runs report it. Benchmarks
present in only one side are listed separately so a renamed or dropped
benchmark never silently vanishes from the comparison.

--filter may be repeated; a benchmark is compared when its name contains
ANY of the given substrings (no --filter compares everything), so a CI
smoke step can gate all its benchmarks in one invocation and one table.
The table ends with a geometric-mean summary row over the matched
speedups — the single headline number for "did this change pay off".

With --fail-below R the exit status is 1 if any matched benchmark's
time-based speedup falls below R (e.g. --fail-below 0.9 fails the run on
a >10% regression), which lets CI gate on it directly. The geomean row is
informational only; the gate stays on the worst case.
"""

import argparse
import json
import math
import statistics
import sys


def load(path):
    with open(path) as f:
        rows = json.load(f)
    table = {}
    for row in rows:
        table[row["name"]] = row
    return table


def load_side(paths):
    """One row per benchmark present in every file: the median ns_per_op
    and propagations_per_sec over the files."""
    tables = [load(p) for p in paths]
    side = {}
    for name in tables[0]:
        rows = [t[name] for t in tables if name in t]
        if len(rows) < len(tables):
            continue
        side[name] = {
            "ns_per_op": statistics.median(r["ns_per_op"] for r in rows),
            "propagations_per_sec": statistics.median(
                r.get("propagations_per_sec", 0.0) for r in rows
            ),
        }
    return side


def fmt_time(ns):
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def fmt_rate(per_sec):
    if per_sec >= 1e6:
        return f"{per_sec / 1e6:.2f}M/s"
    if per_sec >= 1e3:
        return f"{per_sec / 1e3:.1f}k/s"
    return f"{per_sec:.0f}/s"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "old", help="baseline BENCH_micro.json (comma-separated: medians)"
    )
    parser.add_argument(
        "new", help="candidate BENCH_micro.json (comma-separated: medians)"
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 if any time speedup (old/new) is below RATIO",
    )
    parser.add_argument(
        "--filter",
        action="append",
        default=None,
        help="only compare benchmarks whose name contains this substring; "
        "repeatable (a name matching ANY pattern is kept)",
    )
    args = parser.parse_args()
    old_paths = args.old.split(",")
    new_paths = args.new.split(",")

    def matches(name):
        return args.filter is None or any(p in name for p in args.filter)

    old = load_side(old_paths)
    new = load_side(new_paths)
    names = [n for n in old if n in new and matches(n)]
    only_old = [n for n in old if n not in new and matches(n)]
    only_new = [n for n in new if n not in old and matches(n)]

    if not names:
        print("no matching benchmarks between the two files", file=sys.stderr)
        return 2

    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  {'speedup':>8}")
    worst = None
    speedups = []
    for name in names:
        o, n = old[name], new[name]
        speedup = o["ns_per_op"] / n["ns_per_op"] if n["ns_per_op"] else 0.0
        worst = speedup if worst is None else min(worst, speedup)
        if speedup > 0.0:
            speedups.append(speedup)
        line = (
            f"{name:<{width}}  {fmt_time(o['ns_per_op']):>10}  "
            f"{fmt_time(n['ns_per_op']):>10}  {speedup:>7.2f}x"
        )
        if o.get("propagations_per_sec") and n.get("propagations_per_sec"):
            rate = n["propagations_per_sec"] / o["propagations_per_sec"]
            line += (
                f"   props {fmt_rate(o['propagations_per_sec'])}"
                f" -> {fmt_rate(n['propagations_per_sec'])} ({rate:.2f}x)"
            )
        print(line)

    if speedups:
        geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        print(
            f"{'geomean (' + str(len(speedups)) + ' benchmarks)':<{width}}  "
            f"{'':>10}  {'':>10}  {geomean:>7.2f}x"
        )

    for name in only_old:
        print(f"{name:<{width}}  only in {args.old}")
    for name in only_new:
        print(f"{name:<{width}}  only in {args.new}")

    if args.fail_below is not None and worst is not None:
        if worst < args.fail_below:
            print(
                f"FAIL: worst speedup {worst:.2f}x below "
                f"--fail-below {args.fail_below}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
