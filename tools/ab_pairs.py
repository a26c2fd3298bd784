#!/usr/bin/env python3
"""A/B timing of two source trees on the suite benchmark, layout varied.

Usage:
    tools/ab_pairs.py [--base REV] [--workloads W[,W...]] [--pairs N]
                      [--seconds S] [--seed K]

The "head" side is the working tree this script lives in; the "base" side
is REV (default HEAD~1, the parent of a committed change; pass HEAD to
time uncommitted edits against the last commit, or to run A against A).
REV is checked out into a temporary `git worktree`, removed on exit. Each
side runs its own, unchanged `suitebench/run.py`, which builds its own
sources into that tree's .bench_build/ (one discarded warm-up run per side
and workload does the build).

Then, per workload, N pairs run alternately at suitebench seed K (default
0; another seed is a held-out check) with base first in even pairs and
head first in odd ones. Both runs of a pair get the same random
environment padding of 0 to 4 KB (the AB_PAIRS_PAD variable).
The environment sits at the top of the process stack, so the padding
moves the stack, and everything addressed relative to it, the way
Mytkowicz et al. (ASPLOS 2009) showed can swing a timing by more than a
code change does. GLIBC_TUNABLES is not set on the timed runs: a malloc
tunable turns off glibc's dynamic mmap threshold (mallopt(3)), so the
program it times allocates differently from the one the benchmark runs.

For every end-to-end metric BENCHMARK.json declares it prints each side's
median and quartiles over the N runs, how many pairs head won, and the
benchmark's gain rule: head better in at least 90 % of the pairs and the
median gap wider than the base's interquartile range ("gain"; "loss" is
the same rule with the sides swapped). It also says whether the search
moved: whether every run's first-pass solve records (status, colors,
lower bound, conflicts, SAT calls per instance) equal the first base
run's. After the pairs it runs each side once more, one pass, with
GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072, and prints both
peak_rss_mb readings as a check: with the threshold fixed, peak RSS does
not depend on which freed block raised the dynamic threshold first. On
the same line it prints each side's minor page faults for one pass of the
built suite_bench, run directly (run.py would add cmake's own faults),
read as the getrusage(RUSAGE_CHILDREN) delta: a count of work and heap
churn that repeats from run to run where no hardware counter can be read.
That check is not part of the gain rule. A build failure, a run failure
or a wrong answer exits 2.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAD_VAR = "AB_PAIRS_PAD"
MAX_PAD = 4096
# ROADMAP item 12's placement-free memory reading: glibc's mmap threshold
# pinned at 128 KB (its default before any free raises it).
FIXED_MMAP_THRESHOLD = "glibc.malloc.mmap_threshold=131072"
SEARCH_FIELDS = ("instance", "mode", "status", "colors", "lower_bound",
                 "conflicts", "sat_calls")


def fail(message):
    print(f"ab_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def run_side(tree, workload, args, pad, seconds=None, tunables=None):
    """One suitebench run in `tree`: its metrics and its first-pass solves.

    `seconds` overrides --seconds (0 runs one pass); `tunables`, when
    given, is set as GLIBC_TUNABLES for the run.
    """
    env = dict(os.environ)
    env[PAD_VAR] = "x" * pad
    if tunables is not None:
        env["GLIBC_TUNABLES"] = tunables
    cmd = [sys.executable, str(tree / "suitebench" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds if seconds is None else seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        fail(f"{tree}: run.py --workload {workload} exited {done.returncode}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    results = (tree / ".bench_build" / "suitebench" / "results" /
               f"{workload}-seed{args.seed}-trace0.json")
    records = json.loads(results.read_text())["records"]
    search = [tuple(r[f] for f in SEARCH_FIELDS) for r in records
              if r["type"] == "solve" and r["pass"] == 0]
    return metrics, search


def pass_faults(tree, workload, args):
    """Minor page faults of one suite_bench pass in `tree`, run directly."""
    exe = tree / ".bench_build" / "suitebench" / "suite_bench"
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        fail(f"{exe} --workload {workload} exited {done.returncode}")
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def quartiles(values):
    """q1, median, q3 (the one value three times for a single run)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def wins(a, b, sign):
    """Pairs in which b beats a; sign is -1 when lower is better."""
    return sum(sign * (y - x) > 0 for x, y in zip(a, b))


def verdict(base, head, sign):
    """The benchmark's gain rule for head over base, then base over head."""
    for name, a, b in (("gain", base, head), ("loss", head, base)):
        q1, med_a, q3 = quartiles(a)
        gap = sign * (statistics.median(b) - med_a)
        if wins(a, b, sign) >= math.ceil(0.9 * len(a)) and gap > q3 - q1:
            return name
    return "-"


def compare(workload, spec, base_tree, args, rng):
    # Warm-up: builds each side and is discarded.
    _, reference = run_side(base_tree, workload, args, 0)
    _, search = run_side(ROOT, workload, args, 0)
    runs = {"base": [], "head": []}
    moved = [] if search == reference else ["warm-up head"]
    for i in range(args.pairs):
        pad = rng.randint(0, MAX_PAD)
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            tree = base_tree if side == "base" else ROOT
            metrics, search = run_side(tree, workload, args, pad)
            runs[side].append(metrics)
            if search != reference:
                moved.append(f"pair {i + 1} {side}")
        print(f"  pair {i + 1}/{args.pairs}  pad {pad:4d}  total_s "
              f"base {runs['base'][-1]['total_s']:.4f}  "
              f"head {runs['head'][-1]['total_s']:.4f}", file=sys.stderr)

    print(f"workload {workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seed {args.seed}, base {args.base} vs head working tree")
    print(f"  {'metric':<16} {'base median [q1, q3]':>28} "
          f"{'head median [q1, q3]':>28}  head wins  rule")
    for m in spec["end_to_end"]:
        name = m["name"]
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        sign = -1.0 if m["better"] == "lower" else 1.0
        cells = []
        for values in (base, head):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"  {name:<16} {cells[0]:>28} {cells[1]:>28}  "
              f"{wins(base, head, sign):>4}/{args.pairs:<4}  "
              f"{verdict(base, head, sign)}")
    # The fixed-threshold memory check and the page faults of one pass,
    # outside the gain rule.
    fixed = {}
    faults = {}
    for side, tree in (("base", base_tree), ("head", ROOT)):
        metrics, search = run_side(tree, workload, args, 0, seconds=0,
                                   tunables=FIXED_MMAP_THRESHOLD)
        fixed[side] = metrics["peak_rss_mb"]
        if search != reference:
            moved.append(f"fixed-threshold {side}")
        faults[side] = pass_faults(tree, workload, args)
    print(f"  check: peak_rss_mb with GLIBC_TUNABLES={FIXED_MMAP_THRESHOLD}, "
          f"one pass per side: base {fixed['base']:.4g}, "
          f"head {fixed['head']:.4g}; minor faults per pass: "
          f"base {faults['base']}, head {faults['head']} "
          f"(not in the gain rule)")
    if moved:
        print(f"  search MOVED: solve records differ from the first base run "
              f"in {len(moved)} runs ({', '.join(moved[:4])}...)")
    else:
        print(f"  search unchanged: {len(reference)} first-pass solve records "
              f"equal on all {2 * args.pairs + 4} runs")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            parser.error(f"unknown workload {w!r} (one of {', '.join(names)})")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    rev = git("rev-parse", "--verify", args.base + "^{commit}")
    scratch = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    base_tree = scratch / "base"
    git("worktree", "add", "--detach", str(base_tree), rev)
    try:
        rng = random.Random(1)  # the same paddings on every invocation
        for w in workloads:
            compare(w, spec, base_tree, args, rng)
    finally:
        git("worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
