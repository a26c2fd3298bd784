#!/usr/bin/env python3
"""End-to-end smoke test for symcolor_cli's argument handling and exit codes.

Usage: cli_smoke.py <path-to-symcolor_cli>

Malformed or out-of-range numeric flag values, and flags --satloop does
not honor, must print usage and exit 3 (never crash or silently fall back
to a default or ignore the flag). Short solves pin the answer line and
the exit-code convention (0 optimal, 2 budget stop) on both pipelines
and under every --satloop search strategy, and --satloop --stats must
print the same `solver:` line as the native pipeline.
"""

import os
import subprocess
import sys

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
    ]
    for args, want_code, want_text in solves:
        code, out, _ = run(cli, *args)
        check(code == want_code,
              f"{' '.join(args)} must exit {want_code}, got {code}")
        check(want_text in out,
              f"{' '.join(args)} must print '{want_text}', got: {out}")

    print("cli_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
