"""Turn suite_bench's JSON-line records into the benchmark's metrics.

Pure functions over parsed records, so the arithmetic is testable without
building anything (see tests/test_aggregate.py).
"""

import statistics

SOLVED = ("optimal", "infeasible")

# Layer spans recorded by the traced replica; each becomes "<span>_s".
LAYER_SPANS = (
    "coloring.encode", "symmetry.graph_build", "automorphism.search",
    "symmetry.verify", "symmetry.lexleader", "pb.solve", "graph.clique",
    "coloring.decode", "coloring.dsatur", "coloring.cnf_encode",
    "coloring.satloop_solve",
)
ROOT_SPAN = "pipeline"

# Per-layer metrics that are sums of a raw per-solve counter.
COUNTER_SUMS = {
    "coloring.formula_vars": "formula_vars",
    "coloring.formula_clauses": "formula_clauses",
    "symmetry.graph_vertices": "graph_vertices",
    "automorphism.nodes": "aut_nodes",
    "symmetry.generators": "generators",
    "symmetry.spurious": "spurious",
    "symmetry.sbp_clauses": "sbp_clauses",
    "pb.probes": "probes",
    "sat.conflicts": "conflicts",
    "sat.decisions": "decisions",
    "sat.propagations": "propagations",
    "sat.learned_pbs": "learned_pbs",
    "sat.pb_resolutions": "pb_resolutions",
    "sat.restarts": "restarts",
    "sat.arena_collections": "arena_collections",
    "sat.deleted_clauses": "deleted_clauses",
    "sat.inprocess_rounds": "inprocess_rounds",
    "sat.chrono_backtracks": "chrono_backtracks",
    "sat.reused_trail_literals": "reused_trail_literals",
    "graph.clique_size": "clique_size",
    "coloring.dsatur_colors": "dsatur_colors",
    "coloring.bounds_closed": "bounds_closed",
    "coloring.sat_calls": "sat_calls",
}


def ratio(num, den):
    return num / den if den else 0.0


def solve_gap(solve):
    """Colors between the proven lower bound and the incumbent of one
    unproven solve. Without an incumbent the incumbent counts as K + 1; a
    lower bound beyond it closes the gap."""
    if solve["status"] in SOLVED:
        return 0
    upper = solve["colors"] if solve["colors"] > 0 else solve["max_colors"] + 1
    return upper - min(solve["lower_bound"], upper)


# Reference searches on each side of a solve that set its speed factor.
CALIBRATION_WINDOW = 2


def calibrate(records):
    """Records with every time in reference seconds (src/calibration.h).

    Times are CPU seconds. A solve's time is scaled by the reference
    seconds over the median time of the reference searches run after it
    and the CALIBRATION_WINDOW solves on each side of it in its pass; a
    traced solve's spans by the same factor; set-up times by the median of
    the set-up's reference searches. A solve's raw CPU seconds stay in
    "cpu_seconds"."""
    nominal = next(r for r in records if r["type"] == "meta")["reference_seconds"]
    factor = {}  # id() of a solve record -> its factor
    for p in by_pass([r for r in records if r["type"] == "solve"]):
        for i, s in enumerate(p):
            near = p[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
            factor[id(s)] = nominal / statistics.median(n["reference"] for n in near)
    traced = {(r["pass"], r["instance"]): factor[id(r)] for r in records
              if r["type"] == "solve" and r["mode"] == "traced"}
    out = []
    for r in records:
        if r["type"] == "setup":
            f = nominal / statistics.median(r["reference"])
            r = dict(r, seconds=[t * f for t in r["seconds"]])
        elif r["type"] == "solve":
            r = dict(r, seconds=r["seconds"] * factor[id(r)],
                     cpu_seconds=r["seconds"])
        elif r["type"] == "span":
            f = traced[(r["pass"], r["instance"])]
            r = dict(r, start=r["start"] * f, end=r["end"] * f)
        out.append(r)
    return out


def by_pass(solves):
    passes = {}
    for s in solves:
        passes.setdefault(s["pass"], []).append(s)
    return [passes[p] for p in sorted(passes)]


def solve_medians(solves, key="seconds"):
    """Median seconds of each instance over all passes. Taking it per
    instance before summing keeps a burst of noise in one pass from moving
    the whole pass."""
    times = {}
    for s in solves:
        times.setdefault(s["instance"], []).append(s[key])
    return [statistics.median(t) for t in times.values()]


def end_to_end(records):
    """The end-to-end metrics of the untraced ("plain") passes."""
    plain = [r for r in records if r["type"] == "solve" and r["mode"] == "plain"]
    setup = next(r for r in records if r["type"] == "setup")["seconds"]
    memory = next(r for r in records if r["type"] == "memory")
    medians = solve_medians(plain)
    return {
        "solved": statistics.median(
            sum(s["status"] in SOLVED for s in p) for p in by_pass(plain)),
        "total_s": sum(medians),
        "instance_p50_s": statistics.median(medians),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": memory["peak_rss_mb"],
    }


def bound_gap(records):
    plain = [r for r in records if r["type"] == "solve" and r["mode"] == "plain"]
    return statistics.median(sum(solve_gap(s) for s in p) for p in by_pass(plain))


def errors(records):
    """(attempted, list of "instance: reason") over every solve."""
    solves = [r for r in records if r["type"] == "solve"]
    failed = [f"{s['instance']} [{s['mode']} pass {s['pass']}]: {s['error']}"
              for s in solves if s["error"]]
    return len(solves), failed


def fidelity_mismatches(records):
    """Traced solves whose answer or conflict count differs from the
    untraced solve of the same pass (every workload is single-threaded, so
    they must agree exactly)."""
    plain = {}
    for r in records:
        if r["type"] == "solve" and r["mode"] == "plain":
            plain[(r["pass"], r["instance"])] = r
    fields = ("status", "colors", "lower_bound", "conflicts", "sat_calls")
    out = []
    for r in records:
        if r["type"] != "solve" or r["mode"] != "traced":
            continue
        twin = plain.get((r["pass"], r["instance"]))
        if twin is None:
            out.append(f"{r['instance']}: no untraced twin")
            continue
        for f in fields:
            if r[f] != twin[f]:
                out.append(f"{r['instance']} pass {r['pass']}: {f} "
                           f"{twin[f]} untraced vs {r[f]} traced")
    return out


def self_times(spans):
    """Self time per span: duration minus the durations of its children.
    Children of one span run one after another, so they never overlap."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child.get(s["id"], 0.0)) for s in spans]


def layer_pass(solves, spans):
    """Per-layer metrics of one traced pass."""
    m = {}
    selfs = self_times(spans)
    for name in LAYER_SPANS:
        m[name + "_s"] = sum(t for s, t in selfs if s["name"] == name)
    root_total = sum(s["end"] - s["start"] for s in spans if s["name"] == ROOT_SPAN)
    root_self = sum(t for s, t in selfs if s["name"] == ROOT_SPAN)
    m["trace.layer_share"] = ratio(root_total - root_self, root_total)

    total = {}
    for s in solves:
        for k, v in s.get("counters", {}).items():
            total[k] = total.get(k, 0.0) + v
    for metric, counter in COUNTER_SUMS.items():
        m[metric] = total.get(counter, 0.0)
    m["automorphism.bad_leaf_ratio"] = ratio(total.get("aut_bad_leaves", 0.0),
                                             total.get("aut_leaves", 0.0))
    m["sat.props_per_s"] = ratio(m["sat.propagations"], m["pb.solve_s"])
    m["sat.conflicts_per_s"] = ratio(m["sat.conflicts"], m["pb.solve_s"])
    fallbacks = total.get("pb_fallbacks", 0.0)
    m["sat.pb_fallback_ratio"] = ratio(fallbacks, m["sat.learned_pbs"] + fallbacks)
    m["sat.mean_lbd"] = ratio(total.get("lbd_sum", 0.0),
                              total.get("learned_clauses", 0.0))
    m["sat.vivified_per_round"] = ratio(total.get("vivified_clauses", 0.0),
                                        m["sat.inprocess_rounds"])
    return m


def per_layer(records):
    """Per-layer metrics: the median over traced passes, plus the tracing
    overhead (traced minus untraced total, each from per-instance medians)."""
    traced = [r for r in records if r["type"] == "solve" and r["mode"] == "traced"]
    spans = [r for r in records if r["type"] == "span"]
    per_pass = []
    for p in by_pass(traced):
        index = p[0]["pass"]
        per_pass.append(layer_pass(p, [s for s in spans if s["pass"] == index]))
    m = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    plain = [r for r in records if r["type"] == "solve" and r["mode"] == "plain"]
    m["trace.overhead_s"] = sum(solve_medians(traced)) - sum(solve_medians(plain))
    return m
