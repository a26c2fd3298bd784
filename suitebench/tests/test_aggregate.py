"""Aggregation arithmetic on fixed inputs.

    python3 -m unittest discover -s suitebench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import aggregate  # noqa: E402


def solve(instance, seconds, status="optimal", colors=5, lower_bound=5,
          mode="plain", pass_=0, max_colors=20, error="", conflicts=10,
          sat_calls=-1, counters=None):
    r = {"type": "solve", "mode": mode, "pass": pass_, "instance": instance,
         "status": status, "colors": colors,
         "lower_bound": lower_bound, "max_colors": max_colors,
         "seconds": seconds, "conflicts": conflicts, "sat_calls": sat_calls,
         "error": error}
    if counters is not None:
        r["counters"] = counters
    return r


def span(id_, name, start, end, parent=-1, pass_=0, instance="a"):
    return {"type": "span", "pass": pass_, "id": id_, "parent": parent,
            "name": name, "instance": instance, "start": start, "end": end}


FIXED = [
    {"type": "setup", "seconds": [0.03, 0.01, 0.02]},
    solve("a", 1.0, pass_=0),
    solve("b", 3.0, status="feasible", colors=7, lower_bound=4, pass_=0),
    solve("c", 2.0, status="unknown", colors=-1, lower_bound=12, pass_=0),
    solve("a", 1.5, pass_=1),
    solve("b", 2.5, status="feasible", colors=7, lower_bound=4, pass_=1),
    solve("c", 5.0, status="infeasible", colors=-1, lower_bound=0, pass_=1),
    {"type": "memory", "peak_rss_mb": 42.5},
]


class EndToEnd(unittest.TestCase):
    def test_medians(self):
        m = aggregate.end_to_end(FIXED)
        self.assertEqual(m["solved"], 1.5)  # passes solve 1 and 2
        # Per-instance medians over the two passes: a 1.25, b 2.75, c 3.5.
        self.assertEqual(m["total_s"], 7.5)
        self.assertEqual(m["instance_p50_s"], 2.75)
        self.assertEqual(m["setup_s"], 0.02)
        self.assertEqual(m["peak_rss_mb"], 42.5)

    def test_bound_gap(self):
        # Unproven b: 7 - 4 = 3 in both passes. Unknown c has no incumbent,
        # so it counts as K + 1 = 21, and its lower bound 12 gives 9.
        self.assertEqual(aggregate.solve_gap(FIXED[2]), 3)
        self.assertEqual(aggregate.solve_gap(FIXED[3]), 9)
        self.assertEqual(aggregate.bound_gap(FIXED), (12 + 3) / 2)

    def test_gap_closed_by_a_bound_above_k(self):
        s = solve("z", 1.0, status="unknown", colors=-1, lower_bound=31)
        self.assertEqual(aggregate.solve_gap(s), 0)

    def test_errors(self):
        records = FIXED + [solve("d", 1.0, error="improper coloring")]
        attempted, failed = aggregate.errors(records)
        self.assertEqual(attempted, 7)
        self.assertEqual(len(failed), 1)
        self.assertIn("improper coloring", failed[0])
        self.assertAlmostEqual(aggregate.ratio(len(failed), attempted), 1 / 7)


class Calibration(unittest.TestCase):
    def test_times_scale_by_nearby_reference_searches(self):
        def timed(instance, reference, mode="plain", pass_=0):
            return dict(solve(instance, 1.0, mode=mode, pass_=pass_),
                        reference=reference)
        records = [
            {"type": "meta", "reference_seconds": 0.01},
            {"type": "setup", "seconds": [0.4, 0.2], "reference": [0.02, 0.02]},
            timed("a", 0.02), timed("b", 0.02), timed("c", 0.02),
            timed("d", 0.005), timed("e", 0.005), timed("f", 0.005),
            timed("a", 0.04, mode="traced"),
            span(0, "pipeline", 1.0, 3.0, instance="a"),
            timed("a", 0.01, pass_=1),
        ]
        out = aggregate.calibrate(records)
        self.assertEqual(out[1]["seconds"], [0.2, 0.1])  # set-up ran at half speed
        self.assertEqual(out[2]["seconds"], 0.5)  # a, b, c: median 0.02
        self.assertEqual(out[2]["cpu_seconds"], 1.0)
        self.assertEqual(out[3]["seconds"], 0.5)  # a..d: median 0.02
        self.assertEqual(out[5]["seconds"], 2.0)  # b..f: median 0.005
        self.assertEqual(out[8]["seconds"], 2.0)  # e, f, traced a: 0.005
        self.assertEqual((out[9]["start"], out[9]["end"]), (2.0, 6.0))
        self.assertEqual(out[10]["seconds"], 1.0)  # pass 1 alone: 0.01
        self.assertEqual(records[2]["seconds"], 1.0)  # input left alone


class Fidelity(unittest.TestCase):
    def test_match_and_mismatch(self):
        same = [solve("a", 1.0), solve("a", 1.2, mode="traced")]
        self.assertEqual(aggregate.fidelity_mismatches(same), [])
        drift = [solve("a", 1.0), solve("a", 1.2, mode="traced", conflicts=11)]
        self.assertEqual(len(aggregate.fidelity_mismatches(drift)), 1)


class Layers(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, "pipeline", 0.0, 10.0),
                 span(1, "pb.solve", 1.0, 7.0, parent=0),
                 span(2, "coloring.decode", 7.0, 9.0, parent=0)]
        selfs = {s["name"]: t for s, t in aggregate.self_times(spans)}
        self.assertAlmostEqual(selfs["pipeline"], 2.0)
        self.assertAlmostEqual(selfs["pb.solve"], 6.0)

    def test_layer_pass(self):
        spans = [span(0, "pipeline", 0.0, 10.0),
                 span(1, "pb.solve", 0.0, 8.0, parent=0),
                 span(2, "coloring.encode", 8.0, 9.0, parent=0)]
        counters = {"conflicts": 400, "propagations": 8000,
                    "aut_leaves": 10, "aut_bad_leaves": 2, "learned_pbs": 3,
                    "pb_fallbacks": 1, "lbd_sum": 30, "learned_clauses": 10}
        m = aggregate.layer_pass([solve("a", 10.0, mode="traced",
                                        counters=counters)], spans)
        self.assertAlmostEqual(m["pb.solve_s"], 8.0)
        self.assertAlmostEqual(m["trace.layer_share"], 0.9)
        self.assertAlmostEqual(m["sat.conflicts_per_s"], 50.0)
        self.assertAlmostEqual(m["sat.props_per_s"], 1000.0)
        self.assertAlmostEqual(m["automorphism.bad_leaf_ratio"], 0.2)
        self.assertAlmostEqual(m["sat.pb_fallback_ratio"], 0.25)
        self.assertAlmostEqual(m["sat.mean_lbd"], 3.0)
        self.assertEqual(m["sat.vivified_per_round"], 0.0)  # no rounds ran

    def test_overhead(self):
        records = FIXED + [
            solve("a", 2.0, mode="traced", pass_=0, counters={}),
            solve("a", 2.0, mode="traced", pass_=1, counters={}),
            span(0, "pipeline", 0.0, 2.0, pass_=0),
            span(0, "pipeline", 0.0, 2.0, pass_=1),
        ]
        m = aggregate.per_layer(records)
        self.assertAlmostEqual(m["trace.overhead_s"], 2.0 - 7.5)


if __name__ == "__main__":
    unittest.main()
