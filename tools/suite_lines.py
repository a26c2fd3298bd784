#!/usr/bin/env python3
"""Print one answer summary per built-in suite instance, for diffing builds.

Usage: suite_lines.py <symcolor_cli> [flags...]

Runs `symcolor_cli --instance <name> [flags...]` for every instance of the
CLI's built-in suite and prints, per instance, one tab-separated line:

    name  exit code  answer line  solver: line (or "-")

The instance names come from the CLI itself (the listing it prints for an
unknown --instance), so the script follows the suite as it changes. Wall
times in the answer line ("0.123 s") are masked as "T s", so two builds
that give the same answers print identical output:

    suite_lines.py old/symcolor_cli --satloop --stats > old.txt
    suite_lines.py new/symcolor_cli --satloop --stats > new.txt
    diff old.txt new.txt
"""

import re
import subprocess
import sys

SECONDS = re.compile(r"\d+\.\d+ s\)")


def instance_names(cli):
    proc = subprocess.run([cli, "--instance", "?"], capture_output=True,
                          text=True, timeout=60)
    names = [line.strip() for line in proc.stderr.splitlines()
             if line.startswith("  ")]
    if not names:
        sys.exit(f"suite_lines: {cli} listed no instances")
    return names


def summary(cli, name, flags):
    proc = subprocess.run([cli, "--instance", name, *flags],
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    answer = SECONDS.sub("T s)", lines[-1]) if lines else "-"
    solver = next((l for l in lines if l.startswith("solver:")), "-")
    return f"{name}\t{proc.returncode}\t{answer}\t{solver}"


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 3
    cli, flags = sys.argv[1], sys.argv[2:]
    for name in instance_names(cli):
        print(summary(cli, name, flags), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
