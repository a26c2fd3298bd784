#!/usr/bin/env python3
"""End-to-end smoke test for symcolor_serve's newline-JSON protocol.

Usage: serve_smoke.py <path-to-symcolor_serve> <path-to-symcolor_cli>

Run 1 drives a scripted batch over a deliberately small pool
(--workers 1 --queue 1): a SAT solve, an UNSAT solve, requests whose
`search`, `threads`, `k` or `sbp` is out of range or of the wrong type,
or that carry a key outside their kind's list (a field of the other
kind, or an unknown one such as the retired `cube_depth`), and must
fail, a coloring request at `threads` 2 that must answer the same chi as
at 1 thread, an over-budget solve that must degrade, a
mid-flight cancellation, an overload burst where the newest requests are
shed with retry hints, a stats probe, and a clean quit — asserting every
submitted request reaches exactly one well-formed terminal response and
the process exits 0.

Run 2 arms a service-wide --timeout and checks the budget-stop exit
convention shared with symcolor_cli: the in-flight session degrades and
the process exits 2.

Run 3 passes malformed or out-of-range numeric flag values, which must
print usage and exit 3 before the server reads any request.

Run 4 checks that serve and the CLI give the same answer: for every
built-in suite instance, under three standard flag sets, serve's
`outcome`, `colors`, `lower_bound` (on "feasible") and `conflicts` must
match the CLI's answer line and `solver:` line (read through
suite_lines.py).
"""

import json
import os
import re
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from suite_lines import instance_names, summary  # noqa: E402


def php(pigeons, holes):
    """PHP(p, h) in DIMACS literal arrays: SAT iff p <= h."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return {"vars": pigeons * holes, "clauses": clauses}


class Server:
    def __init__(self, binary, extra_args=()):
        self.proc = subprocess.Popen(
            [binary, *extra_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.lines = []
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()

    def _drain(self):
        for raw in self.proc.stdout:
            raw = raw.strip()
            if not raw:
                continue
            msg = json.loads(raw)  # every output line must be valid JSON
            with self.cond:
                self.lines.append(msg)
                self.cond.notify_all()

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def mark(self):
        """Cursor for wait_for(start=...): only match lines after now."""
        with self.cond:
            return len(self.lines)

    def wait_for(self, pred, what, timeout=60.0, start=0):
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                for msg in self.lines[start:]:
                    if pred(msg):
                        return msg
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(
                        f"timed out waiting for {what}; saw: {self.lines}")
                self.cond.wait(remaining)

    def stats_until(self, pred, what, timeout=30.0):
        """Poll {"op":"stats"} until pred holds on a FRESH response."""
        deadline = time.monotonic() + timeout
        while True:
            start = self.mark()
            self.send({"op": "stats"})
            msg = self.wait_for(lambda m: m.get("op") == "stats",
                                "stats response", timeout=10.0, start=start)
            if pred(msg):
                return msg
            if time.monotonic() > deadline:
                raise AssertionError(f"timed out polling stats for {what}; "
                                     f"last: {msg}")
            time.sleep(0.01)

    def result_of(self, rid, timeout=60.0):
        return self.wait_for(
            lambda m: m.get("id") == rid and "outcome" in m,
            f"result of {rid!r}", timeout)

    def finish(self, close_stdin=True, timeout=60.0):
        if close_stdin and self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        code = self.proc.wait(timeout=timeout)
        self.reader.join(timeout=10.0)
        return code


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def run_batch(binary):
    srv = Server(binary, ["--workers", "1", "--queue", "1", "--grace", "5"])
    slow = php(10, 9)  # far beyond what fits in the budgets below

    # 1. Plain SAT and UNSAT round trips (sequenced: the pool is a single
    #    worker with a single queue slot, so concurrent submits would be
    #    load-shed — that behaviour is exercised deliberately in step 4).
    srv.send({"op": "solve", "id": "sat", **php(3, 4)})
    check(srv.result_of("sat")["outcome"] == "sat", "expected sat")
    srv.send({"op": "solve", "id": "unsat", **php(4, 3)})
    r = srv.result_of("unsat")
    check(r["outcome"] == "unsat", f"expected unsat, got {r}")

    # 1b. A malformed knob fails the request with an error naming the
    #     field, instead of running it on a default. 4294967301 is 5 once
    #     narrowed to 32 bits, so it must be range-checked before any
    #     narrowing; a string "4" or a fractional 5.5 is no integer, and 3
    #     names no SBP row.
    for rid, field, value in (("bad_search", "search", "bogus"),
                              ("bad_threads", "threads", 0),
                              ("big_threads", "threads", 65),
                              ("huge_threads", "threads", 1e300),
                              ("str_threads", "threads", "4"),
                              ("zero_k", "k", 0),
                              ("wrapped_k", "k", 4294967301),
                              ("frac_k", "k", 5.5),
                              ("num_sbp", "sbp", 3)):
        body = ({"instance": "queen5_5"} if field in ("k", "sbp", "search")
                else php(3, 4))
        srv.send({"op": "solve", "id": rid, field: value, **body})
        r = srv.result_of(rid)
        check(r["outcome"] == "failed", f"{field}={value!r} must fail: {r}")
        check(f'"{field}"' in r.get("error", ""),
              f"{field}={value!r} error must name the field: {r}")
    # A key outside the request kind's list fails the request too, instead
    # of being dropped: clauses beside an instance, a K on a clause
    # request, a field serve does not have, a misspelling, and the cube
    # depth, which the parallel engine fixes for both kinds.
    for rid, field, body in (("mixed", "vars", {"instance": "queen5_5",
                                                **php(3, 4)}),
                             ("clause_k", "k", {"k": 5, **php(3, 4)}),
                             ("chrono", "chrono", {"instance": "myciel4",
                                                   "chrono": 5}),
                             ("typo", "theads", {"theads": 4, **php(3, 4)}),
                             ("cube_clause", "cube_depth",
                              {"cube_depth": 6, **php(3, 4)}),
                             ("cube_coloring", "cube_depth",
                              {"instance": "queen5_5", "cube_depth": 6})):
        srv.send({"op": "solve", "id": rid, **body})
        r = srv.result_of(rid)
        check(r["outcome"] == "failed", f"{rid} must fail: {r}")
        check(f'"{field}"' in r.get("error", ""),
              f"{rid} error must name \"{field}\": {r}")

    # 1c. More than one thread runs cube-and-conquer, whose answer is the
    #     sequential engine's: queen6_6 under the SAT loop proves chi = 7
    #     at 1 and at 2 threads.
    chi = {}
    for threads in (1, 2):
        rid = f"threads{threads}"
        srv.send({"op": "solve", "id": rid, "instance": "queen6_6",
                  "satloop": True, "threads": threads})
        r = srv.result_of(rid)
        check(r["outcome"] == "sat", f"{rid} must prove chi: {r}")
        chi[threads] = r["colors"]
    check(chi[1] == chi[2] == 7, f"chi at 1 and 2 threads: {chi}")

    # 2. Over-budget request degrades gracefully with the trip recorded.
    srv.send({"op": "solve", "id": "capped", "conflicts": 50, **slow})
    r = srv.result_of("capped")
    check(r["outcome"] == "degraded", f"expected degraded, got {r}")
    check(r.get("trip") == "conflicts", f"expected conflicts trip, got {r}")

    # 3. Mid-flight cancellation: the ack comes back true and the session
    #    reaches its one terminal outcome, Cancelled via async interrupt.
    srv.send({"op": "solve", "id": "hog", **slow})
    srv.send({"op": "cancel", "id": "hog"})
    ack = srv.wait_for(
        lambda m: m.get("op") == "cancel" and m.get("id") == "hog",
        "cancel ack")
    check(ack["ok"] is True, f"cancel should land, got {ack}")
    r = srv.result_of("hog")
    check(r["outcome"] == "cancelled", f"expected cancelled, got {r}")

    # 4. Overload: occupy the worker, fill the 1-slot queue, then burst.
    #    The newest requests shed as rejected/queue_full with a retry hint;
    #    everything admitted still completes.
    srv.send({"op": "solve", "id": "hog2", **slow})
    srv.stats_until(lambda s: s["running_now"] >= 1, "hog2 running")
    srv.send({"op": "solve", "id": "q1", **php(3, 4)})
    burst = [f"burst{i}" for i in range(4)]
    for rid in burst:
        srv.send({"op": "solve", "id": rid, **php(3, 4)})
    rejected = 0
    for rid in burst:
        r = srv.result_of(rid)
        if r["outcome"] == "rejected":
            check(r["reason"] == "queue_full", f"bad reject reason: {r}")
            check(r.get("retry_after", 0) > 0, f"missing retry hint: {r}")
            rejected += 1
        else:
            check(r["outcome"] == "sat", f"admitted burst must solve: {r}")
    check(rejected >= 1, "a 4-deep burst over a full 1-slot queue "
                         "must shed at least one request")
    srv.send({"op": "cancel", "id": "hog2"})
    check(srv.result_of("hog2")["outcome"] == "cancelled", "hog2 cancel")
    check(srv.result_of("q1")["outcome"] == "sat", "queued q1 must finish")

    # 5. Stats probe: counters reflect the batch (fresh cursor — step 4's
    #    polling left earlier stats responses in the buffer).
    start = srv.mark()
    srv.send({"op": "stats"})
    stats = srv.wait_for(lambda m: m.get("op") == "stats", "stats",
                         start=start)
    check(stats["submitted"] >= 9, f"submitted counter too low: {stats}")
    check(stats["rejected"] >= 1, f"rejected counter missing: {stats}")
    check(stats["cancelled"] >= 2, f"cancelled counter missing: {stats}")

    # 6. Malformed input is answered, not fatal.
    srv.proc.stdin.write("this is not json\n")
    srv.proc.stdin.flush()
    srv.wait_for(lambda m: m.get("error") == "parse error", "parse error")

    # 7. Clean quit: ack, drain, exit 0.
    srv.send({"op": "quit"})
    srv.wait_for(lambda m: m.get("op") == "quit" and m.get("ok") is True,
                 "quit ack")
    code = srv.finish()
    check(code == 0, f"clean quit must exit 0, got {code}")
    print("batch run ok: exit 0, "
          f"{stats['submitted']} submitted / {stats['completed']} completed")


def run_service_timeout(binary):
    srv = Server(binary, ["--workers", "1", "--timeout", "0.3",
                          "--grace", "0.1"])
    srv.send({"op": "solve", "id": "doomed", **php(10, 9)})
    # The service-wide budget preempts the session...
    r = srv.result_of("doomed")
    check(r["outcome"] in ("degraded", "cancelled"),
          f"service timeout must degrade the session, got {r}")
    time.sleep(0.4)  # make sure the budget is spent before EOF
    # ...and the process reports the stop through its exit code.
    code = srv.finish()
    check(code == 2, f"tripped service budget must exit 2, got {code}")
    print("timeout run ok: session degraded, exit 2")


def run_malformed_flags(binary):
    for bad in (["--workers", "2x"], ["--workers", "0"],
                ["--workers", "65"], ["--queue", "5q"],
                ["--queue", "0"], ["--grace", "-1"], ["--grace", "abc"],
                ["--timeout", "abc"], ["--timeout", "inf"],
                ["--default-timeout", "1s"], ["--workers"]):
        proc = subprocess.run([binary, *bad], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=30)
        what = " ".join(bad)
        check(proc.returncode == 3,
              f"{what} must exit 3, got {proc.returncode}")
        check("usage:" in proc.stderr, f"{what} must print usage")
    print("malformed-flag run ok: every bad value exits 3 with usage")


# The standard flag sets, as CLI flags and as the same request fields.
PARITY_FLAG_SETS = (
    (["--sbp", "sc", "--shatter", "--solver", "pbs2"],
     {"sbp": "sc", "shatter": True, "solver": "pbs2"}),
    (["--sbp", "nu+sc", "--solver", "galena", "--conflict-budget", "10000"],
     {"sbp": "nu+sc", "solver": "galena", "conflicts": 10000}),
    (["--satloop", "--conflict-budget", "10000"],
     {"satloop": True, "conflicts": 10000}),
)


def cli_answer(line):
    """A suite_lines.py line as the response fields serve must match."""
    _, code, answer, solver = line.split("\t")
    # The exit code names the outcome: 0 sat, 1 unsat, 2 a budget stop.
    outcome = {"0": "sat", "1": "unsat"}.get(
        code, "feasible" if "best coloring" in answer else "degraded")
    want = {"outcome": outcome}
    for key, pattern in (("colors", r"(?:number:|uses) (\d+)"),
                         ("lower_bound", r">= (\d+) proven"),
                         ("conflicts", r"^solver: (\d+) conflicts")):
        m = re.search(pattern, solver if key == "conflicts" else answer)
        if m:
            want[key] = int(m.group(1))
    check("conflicts" in want, f"CLI printed no solver: line: {line!r}")
    return want


def run_parity(binary, cli):
    names = instance_names(cli)
    for flags, fields in PARITY_FLAG_SETS:
        srv = Server(binary, ["--workers", "2"])
        for name in names:
            srv.send({"op": "solve", "id": name, "instance": name, **fields})
        for name in names:
            want = cli_answer(summary(cli, name, [*flags, "--stats"]))
            got = srv.result_of(name, timeout=300.0)
            check(all(got.get(k) == v for k, v in want.items()),
                  f"{name} {' '.join(flags)}: CLI {want}, serve {got}")
        srv.send({"op": "quit"})
        check(srv.finish() == 0, "parity server must quit cleanly")
        print(f"parity run ok: {len(names)} instances agree under "
              f"{' '.join(flags)}")


def main():
    if len(sys.argv) != 3:
        print("usage: serve_smoke.py <symcolor_serve> <symcolor_cli>",
              file=sys.stderr)
        return 3
    run_batch(sys.argv[1])
    run_service_timeout(sys.argv[1])
    run_malformed_flags(sys.argv[1])
    run_parity(sys.argv[1], sys.argv[2])
    print("serve_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
