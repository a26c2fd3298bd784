#!/usr/bin/env python3
"""Per-file line coverage of the library's sources after a test run.

Usage:
    tools/coverage_report.py BUILD_DIR [SRC_DIR ...]

BUILD_DIR is a build configured with `-DCMAKE_CXX_FLAGS=--coverage` whose
tests have run (ctest), so every object of the `symcolor` library has its
.gcda counts next to it. For each .cpp file under the given source
directories (default: src/sat src/pb) the script runs `gcov -n` on its
object and prints the share of its executable lines the tests ran. It
writes no files and sets no threshold: the report is for reading.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OBJ_DIR = Path("CMakeFiles") / "symcolor.dir"


def coverage(build: Path, src: Path):
    """(executed share in percent, executable lines) for one source file,
    or None when its object has no counts."""
    obj = build / OBJ_DIR / src.relative_to(ROOT)
    obj = obj.with_name(obj.name + ".o")
    if not obj.with_suffix(".gcda").exists():
        return None
    out = subprocess.run(["gcov", "-n", "-o", str(obj), str(src)],
                         cwd=build, capture_output=True, text=True,
                         check=True).stdout
    # gcov prints a "File '...'" block per source it has lines for; keep
    # the block of `src` itself, not the headers it includes.
    for block in out.split("File '")[1:]:
        name, _, rest = block.partition("'")
        if Path(name).resolve() != src:
            continue
        m = re.search(r"Lines executed:([\d.]+)% of (\d+)", rest)
        if m:
            return float(m.group(1)), int(m.group(2))
    return None


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    build = Path(sys.argv[1]).resolve()
    dirs = sys.argv[2:] or ["src/sat", "src/pb"]
    total_lines = 0
    total_run = 0.0
    for d in dirs:
        for src in sorted((ROOT / d).glob("*.cpp")):
            rel = src.relative_to(ROOT)
            result = coverage(build, src)
            if result is None:
                print(f"{rel}: no coverage data")
                continue
            share, lines = result
            total_lines += lines
            total_run += share * lines / 100.0
            print(f"{rel}: {share:6.2f} % of {lines} lines")
    if total_lines:
        print(f"all: {100.0 * total_run / total_lines:6.2f} % of "
              f"{total_lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
