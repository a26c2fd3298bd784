#!/usr/bin/env python3
"""End-to-end smoke test for symcolor_cli's argument handling and exit codes.

Usage: cli_smoke.py <path-to-symcolor_cli>

Malformed or out-of-range numeric flag values, and flags --satloop does
not honor, must print usage and exit 3 (never crash or silently fall back
to a default or ignore the flag). Short solves pin the answer line and
the exit-code convention (0 optimal, 2 budget stop) on both pipelines
and under every --satloop search strategy, --satloop --stats must print
the same `solver:` line as the native pipeline, and a propagation cap on
a --threads 2 (cube-and-conquer) run must stop it on the cap, whose
--stats print the all-workers `workers:` line and the `cubes:` line, and
a `budget:` line with the exit counts of a one-thread run. A
generator that fails verification is reported on the `symmetries:` line,
not on stderr.
"""

import os
import subprocess
import sys
import tempfile

EXIT_SOLVED = 0
EXIT_STOPPED = 2
EXIT_USAGE = 3


def run(binary, *args):
    proc = subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def check(cond, what):
    if not cond:
        print(f"cli_smoke: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print("usage: cli_smoke.py <symcolor_cli>", file=sys.stderr)
        return EXIT_USAGE
    cli = sys.argv[1]

    for bad in (["-k", "0"], ["-k", "abc"], ["--threads", "2x"],
                ["--timeout", "abc"],
                # Every front end bounds the thread count (1..64), since
                # each worker is a thread.
                ["--threads", "0"], ["--threads", "65"],
                # The parallel engine has one cube depth.
                ["--cube-depth", "4"],
                # The pipeline has no pre-solve simplifier.
                ["--simplify"],
                # --satloop rejects the flags only the native pipeline
                # honors, whatever their value (pbs2 is the default).
                ["--satloop", "--decision"], ["--satloop", "-k", "3"],
                ["--satloop", "--shatter"],
                ["--satloop", "--solver", "pbs2"],
                # --opb dumps the native encoding, which --satloop never
                # solves.
                ["--satloop", "--opb", os.devnull]):
        code, _, err = run(cli, "--instance", "myciel3", *bad)
        check(code == EXIT_USAGE,
              f"{' '.join(bad)} must exit {EXIT_USAGE}, got {code}")
        check("usage:" in err, f"{' '.join(bad)} must print usage")

    solves = [
        (["--instance", "queen5_5", "--sbp", "sc", "--shatter"],
         EXIT_SOLVED, "chromatic number: 5"),
        (["--instance", "queen6_6", "--satloop"],
         EXIT_SOLVED, "chromatic number: 7"),
        (["--instance", "queen6_6", "--satloop", "--search", "binary"],
         EXIT_SOLVED, "chromatic number: 7"),
        (["--instance", "queen6_6", "--satloop", "--search", "core"],
         EXIT_SOLVED, "chromatic number: 7"),
        (["--instance", "queen6_6", "--satloop", "--stats"],
         EXIT_SOLVED, "solver:"),
        (["--instance", "queen7_7", "--conflict-budget", "1"],
         EXIT_STOPPED, "stopped (conflicts)"),
        # A counted cap bounds the sum over all cube workers, not each
        # cube slice: the run stops on it long before the deadline. The
        # second cap outlasts the warmup solve.
        (["--instance", "myciel5", "-k", "5", "--decision", "--sbp", "nu",
          "--threads", "2", "--prop-budget", "200000", "--timeout", "20"],
         EXIT_STOPPED, "stopped (propagations)"),
        (["--instance", "myciel5", "-k", "5", "--decision", "--sbp", "nu",
          "--threads", "2", "--prop-budget", "1000000", "--timeout", "20"],
         EXIT_STOPPED, "stopped (propagations)"),
    ]
    for args, want_code, want_text in solves:
        code, out, _ = run(cli, *args)
        check(code == want_code,
              f"{' '.join(args)} must exit {want_code}, got {code}")
        check(want_text in out,
              f"{' '.join(args)} must print '{want_text}', got: {out}")

    # Past the warmup, a parallel run's --stats add the all-workers sum
    # and the cube schedule's counters to the answering worker's line.
    args = ["--instance", "myciel5", "-k", "5", "--decision", "--sbp", "nu",
            "--threads", "2", "--prop-budget", "1000000", "--timeout", "20",
            "--stats"]
    code, out, _ = run(cli, *args)
    check(code == EXIT_STOPPED, f"{' '.join(args)} must exit 2, got {code}")
    for line in ("solver: ", "workers: ", "cubes: "):
        check(f"\n{line}" in f"\n{out}",
              f"{' '.join(args)} must print a '{line}' line, got: {out}")

    # The budget: line counts the engine's own solves by the trip each
    # returned, as at one thread: a worker's warmup slice and the pool's
    # wind-down interrupt are not exits of the run.
    budget_runs = [
        (args, "budget: tripped=propagations exits deadline=0 conflicts=0 "
               "propagations=1 interrupt=0"),
        (["--instance", "DSJC125.9", "--sbp", "nu+sc", "--solver", "galena",
          "--conflict-budget", "10000", "--threads", "2", "--stats"],
         "budget: tripped=conflicts exits deadline=0 conflicts=1 "
         "propagations=0 interrupt=0"),
    ]
    for budget_args, want in budget_runs:
        code, out, _ = run(cli, *budget_args)
        check(code == EXIT_STOPPED,
              f"{' '.join(budget_args)} must exit 2, got {code}")
        check(f"\n{want}\n" in f"\n{out}",
              f"{' '.join(budget_args)} must print '{want}', got: {out}")

    # A one-vertex graph at K = 1 has a formula-graph automorphism with no
    # consistent literal map; the library counts it and stays silent.
    with tempfile.TemporaryDirectory() as tmp:
        one = os.path.join(tmp, "one.col")
        with open(one, "w") as f:
            f.write("p edge 1 0\n")
        code, out, err = run(cli, one, "-k", "1", "--decision", "--shatter",
                             "--stats")
    check(code == EXIT_SOLVED, f"one-vertex --shatter must exit 0, got {code}")
    check(", 1 spurious)" in out,
          f"one-vertex --shatter must report 1 spurious, got: {out}")
    check(err == "", f"one-vertex --shatter must not write stderr: {err}")

    print("cli_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
