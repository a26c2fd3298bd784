#!/usr/bin/env python3
"""Suite benchmark: one named workload over the paper's DIMACS suite.

    python3 suitebench/run.py --workload suite-sbp --seed 0 --seconds 30 --trace 0

Builds the symcolor library and the suite_bench program from source into
.bench_build/suitebench (Release), runs the workload for about --seconds
seconds, checks every answer, prints a report and, as the last line, one
JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) that BENCHMARK.json declares. Exits 1 when any answer
is wrong, 2 when it cannot build or run. See suitebench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import aggregate  # noqa: E402

PAPER_SOLVED = {"suite-sbp": 20}  # the paper's SC + instance-dependent row
RUN_LIMIT_S = 170.0  # one suite_bench run, the build excluded
ALWAYS_REPORTED = ("bound_gap", "error_frac")  # printed on untraced runs too

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "suitebench"
BUILD_TYPE = "Release"


def fail(message, code=2):
    print(f"suitebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "coloring" / "exact_colorer.h").is_file():
        fail(f"symcolor sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "suite_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "suite_bench"


def source_id():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha1:" + digest.hexdigest()[:16]


def run_program(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"suite_bench exceeded {RUN_LIMIT_S:.0f} s")
    records = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    if done.returncode != 0 or not any(r["type"] == "memory" for r in records):
        fail(f"suite_bench exited with code {done.returncode}")
    return records


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    raw = run_program(build(), args)
    records = aggregate.calibrate(raw)
    meta = next(r for r in records if r["type"] == "meta")
    attempted, failed = aggregate.errors(records)
    problems = list(failed)
    if args.trace:
        problems += ["fidelity: " + m for m in aggregate.fidelity_mismatches(records)]
    values = aggregate.end_to_end(records)
    want = PAPER_SOLVED.get(args.workload)
    if want is not None and values["solved"] != want:
        problems.append(f"paper shape: solved {values['solved']} != {want}")
    values["bound_gap"] = aggregate.bound_gap(records)
    values["error_frac"] = aggregate.ratio(len(failed), attempted)
    if args.trace:
        values.update(aggregate.per_layer(records))

    passes = len({r["pass"] for r in records if r["type"] == "solve"})
    source = source_id()
    print(f"workload {args.workload}  seed {args.seed}  passes {passes} x "
          f"{meta['solves_per_pass']} solves  trace {args.trace}")
    print(f"nproc {os.cpu_count()}  hardware_threads {meta['hardware_threads']}  "
          f"build {meta['build_type']}  source {source}")
    plain = [r for r in records if r["type"] == "solve" and r["mode"] == "plain"]
    cpu = sum(aggregate.solve_medians(plain, "cpu_seconds"))
    wall = sum(aggregate.solve_medians(plain, "wall_seconds"))
    notes = {"total_s": f"reference s; per-solve medians over {passes} passes, "
                        f"summed (CPU {cpu:.3f} s, wall {wall:.3f} s)",
             "instance_p50_s": f"median of {meta['solves_per_pass']} per-solve medians",
             "setup_s": "median of the set-up repeats",
             "error_frac": f"{len(failed)} of {attempted} solves"}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    report = spec["end_to_end"] + [m for m in spec["per_layer"]
                                   if m["name"] in ALWAYS_REPORTED or args.trace]
    for m in report:
        print(f"  {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    for p in problems:
        print("FAIL " + p)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "source": source,
                               "nproc": os.cpu_count(), "problems": problems,
                               "metrics": metrics, "records": raw}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
