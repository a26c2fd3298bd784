// Tests for PB->CNF conversion, the pure-CNF coloring encoding, the
// SAT-loop optimizer, and the Mehrotra-Trick set-cover formulation.

#include <gtest/gtest.h>

#include <bit>

#include "cnf/pb_to_cnf.h"
#include "coloring/dsatur_bnb.h"
#include "coloring/encoder.h"
#include "coloring/exact_colorer.h"
#include "coloring/set_cover_formulation.h"
#include "graph/clique.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "sat/cdcl.h"
#include "symmetry/shatter.h"
#include "util/rng.h"

namespace symcolor {
namespace {

int dsaturbnb_chi(const Graph& g) {
  return dsatur_branch_and_bound(g).num_colors;
}

/// Count models projected onto the first `original_vars` variables.
int count_projected_models(const Formula& f, int original_vars) {
  int count = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << original_vars); ++mask) {
    Formula probe = f;
    for (int i = 0; i < original_vars; ++i) {
      probe.add_unit(Lit(i, ((mask >> i) & 1) == 0));
    }
    CdclSolver solver(probe);
    if (solver.solve() == SolveResult::Sat) ++count;
  }
  return count;
}

TEST(PbToCnf, CardinalityAtMostCounts) {
  // at-most-2 of 4: C(4,0)+C(4,1)+C(4,2) = 11 assignments.
  Formula f;
  f.new_vars(4);
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) lits.push_back(Lit::positive(i));
  const PbToCnfStats stats = encode_cardinality_at_most(f, lits, 2);
  EXPECT_GT(stats.aux_vars, 0);
  EXPECT_EQ(f.num_pb(), 0);
  EXPECT_EQ(count_projected_models(f, 4), 11);
}

TEST(PbToCnf, CardinalityAtLeastCounts) {
  // at-least-3 of 5: C(5,3)+C(5,4)+C(5,5) = 16.
  Formula f;
  f.new_vars(5);
  std::vector<Lit> lits;
  for (int i = 0; i < 5; ++i) lits.push_back(Lit::positive(i));
  encode_cardinality_at_least(f, lits, 3);
  EXPECT_EQ(count_projected_models(f, 5), 16);
}

TEST(PbToCnf, CardinalityEdgeCases) {
  Formula f;
  f.new_vars(3);
  std::vector<Lit> lits{Lit::positive(0), Lit::positive(1), Lit::positive(2)};
  // bound 0: no-op for at_least; all-negative units for at_most.
  encode_cardinality_at_least(f, lits, 0);
  EXPECT_EQ(f.num_clauses(), 0);
  encode_cardinality_at_most(f, lits, 0);
  EXPECT_EQ(f.num_clauses(), 3);
  // bound >= n at_most: no-op.
  Formula g;
  g.new_vars(3);
  encode_cardinality_at_most(g, lits, 3);
  EXPECT_EQ(g.num_clauses(), 0);
}

TEST(PbToCnf, InfeasibleBoundGivesUnsat) {
  Formula f;
  f.new_vars(2);
  std::vector<Lit> lits{Lit::positive(0), Lit::positive(1)};
  encode_cardinality_at_least(f, lits, 3);
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(PbToCnf, AtMostOneExhaustive) {
  // Every assignment of n = 0..10 literals, fixed by unit clauses: the
  // commander encoding is satisfiable exactly when at most one is true.
  // The range covers groups of three with remainders 0, 1 and 2, and two
  // levels of commanders.
  for (int n = 0; n <= 10; ++n) {
    Formula amo;
    amo.new_vars(n);
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i) lits.push_back(Lit::positive(i));
    encode_at_most_one(amo, lits);
    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      Formula probe = amo;
      for (int i = 0; i < n; ++i) {
        probe.add_unit(Lit(i, ((mask >> i) & 1) == 0));
      }
      CdclSolver solver(probe);
      EXPECT_EQ(solver.solve() == SolveResult::Sat, std::popcount(mask) <= 1)
          << "n=" << n << " mask=" << mask;
    }
  }
}

TEST(PbToCnf, WeightedBddMatchesSemantics) {
  // 3a + 2b + c >= 4: satisfied by {a,b}, {a,c}, {a,b,c}, {b,c}? 2+1=3 no.
  // Models: a&b (5), a&c (4), a&b&c (6) -> 3 assignments.
  Formula f;
  f.new_vars(3);
  const auto pb = PbConstraint::at_least(
      {{3, Lit::positive(0)}, {2, Lit::positive(1)}, {1, Lit::positive(2)}}, 4);
  const PbToCnfStats stats = encode_pb_as_cnf(f, pb);
  EXPECT_GT(stats.aux_vars, 0);
  EXPECT_EQ(count_projected_models(f, 3), 3);
}

TEST(PbToCnf, WeightedBddRandomAgainstBruteForce) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5;
    std::vector<PbTerm> terms;
    for (int i = 0; i < n; ++i) {
      terms.push_back({static_cast<std::int64_t>(1 + rng.below(4)),
                       Lit(static_cast<Var>(i), rng.chance(0.5))});
    }
    const auto bound = static_cast<std::int64_t>(1 + rng.below(8));
    const auto pb = PbConstraint::at_least(terms, bound);
    if (pb.is_tautology()) continue;

    Formula f;
    f.new_vars(n);
    encode_pb_as_cnf(f, pb);

    int expected = 0;
    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      std::vector<LBool> vals(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        vals[static_cast<std::size_t>(i)] =
            (mask >> i) & 1 ? LBool::True : LBool::False;
      }
      if (pb.satisfied_by(vals)) ++expected;
    }
    EXPECT_EQ(count_projected_models(f, n), expected) << "trial " << trial;
  }
}

TEST(PbToCnf, ToPureCnfPreservesOptimum) {
  Formula f;
  std::vector<Lit> lits;
  Objective obj;
  for (int i = 0; i < 6; ++i) {
    const Var v = f.new_var();
    lits.push_back(Lit::positive(v));
    obj.terms.push_back({1, Lit::positive(v)});
  }
  f.add_at_least(lits, 3);
  f.set_objective(obj);

  PbToCnfStats stats;
  const Formula cnf = to_pure_cnf(f, &stats);
  EXPECT_EQ(cnf.num_pb(), 0);
  EXPECT_GT(stats.clauses, 0);
  const OptResult a = minimize(f, {}, {}, SearchStrategy::Linear);
  const OptResult b = minimize(cnf, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(b.status, OptStatus::Optimal);
  EXPECT_EQ(a.best_value, b.best_value);
}

// ---- pure-CNF coloring encoding ----

TEST(CnfEncoding, DecisionMatchesPbEncoding) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_random_gnm(10, 22, seed);
    const int chi = dsatur_branch_and_bound(g).num_colors;
    for (const int k : {chi - 1, chi, chi + 1}) {
      if (k < 1) continue;
      ColoringEncoding enc = encode_k_coloring_cnf(g, k);
      EXPECT_EQ(enc.formula.num_pb(), 0);
      CdclSolver solver(enc.formula);
      const SolveResult r = solver.solve();
      ASSERT_NE(r, SolveResult::Unknown);
      EXPECT_EQ(r == SolveResult::Sat, k >= chi)
          << "seed=" << seed << " k=" << k;
      if (r == SolveResult::Sat) {
        EXPECT_TRUE(g.is_proper_coloring(enc.decode(solver.model())));
      }
    }
  }
}

TEST(CnfEncoding, SbpRowsStayCorrect) {
  const Graph g = make_random_gnm(9, 16, 5);
  const int chi = dsatur_branch_and_bound(g).num_colors;
  for (const SbpOptions& sbps : paper_sbp_rows()) {
    ColoringEncoding enc = encode_k_coloring_cnf(g, chi, sbps);
    EXPECT_EQ(enc.formula.num_pb(), 0) << sbps.label();
    CdclSolver solver(enc.formula);
    EXPECT_EQ(solver.solve(), SolveResult::Sat) << sbps.label();
  }
}

TEST(SatLoop, FindsChromaticNumbers) {
  ColoringOptions options;
  EXPECT_EQ(solve_coloring_sat_loop(make_myciel_dimacs(3), options).num_colors,
            4);
  EXPECT_EQ(solve_coloring_sat_loop(make_queen_graph(5, 5), options).num_colors,
            5);
}

TEST(SatLoop, AllSearchStrategiesAgree) {
  // Linear, binary and core-guided searches over K must reach the same
  // chromatic number on the one persistent engine (minimize()'s ladder),
  // with clique pinning (no SBPs, NU) and without it (SC, CA, LI). The
  // graphs are ones where the clique and DSATUR bounds leave a gap, so
  // every row makes SAT calls.
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    graphs.push_back(make_random_gnm(16, 50, seed));
  }
  graphs.push_back(make_myciel_dimacs(3));
  const std::vector<SbpOptions> sbp_rows = {
      SbpOptions::none(), SbpOptions::nu_only(), SbpOptions::sc_only(),
      SbpOptions::ca_only(), SbpOptions::li_only()};
  for (const SbpOptions& sbps : sbp_rows) {
    int sat_calls = 0;
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const int expected = dsatur_branch_and_bound(g).num_colors;
      for (const SearchStrategy strategy :
           {SearchStrategy::Linear, SearchStrategy::Binary,
            SearchStrategy::CoreGuided}) {
        ColoringOptions options;
        options.sbps = sbps;
        options.search = strategy;
        const ColoringOutcome r = solve_coloring_sat_loop(g, options);
        const std::string where =
            "graph=" + std::to_string(gi) + " sbps=" + sbps.label() +
            " strategy=" + search_strategy_name(strategy);
        ASSERT_EQ(r.status, OptStatus::Optimal) << where;
        EXPECT_EQ(r.num_colors, expected) << where;
        EXPECT_TRUE(g.is_proper_coloring(r.coloring)) << where;
        EXPECT_TRUE(is_clique(g, r.clique)) << where;
        EXPECT_LE(static_cast<int>(r.clique.size()), r.lower_bound) << where;
        sat_calls += r.sat_calls;
      }
    }
    EXPECT_GT(sat_calls, 0) << sbps.label();
  }
}

TEST(SatLoop, CliqueCertifiesLowerBound) {
  // The returned clique is the lower-bound witness, on optimal runs and
  // on budgeted stops alike. games120 closes on bounds alone: its exact
  // clique meets the DSATUR coloring, so no SAT call is made.
  ColoringOptions options;
  options.conflict_budget = 2000;
  for (const Instance& inst : dimacs_suite()) {
    if (inst.name != "games120" && inst.name != "myciel5" &&
        inst.name != "queen8_12") {
      continue;
    }
    const ColoringOutcome r = solve_coloring_sat_loop(inst.graph, options);
    EXPECT_TRUE(is_clique(inst.graph, r.clique)) << inst.name;
    EXPECT_LE(static_cast<int>(r.clique.size()), r.lower_bound) << inst.name;
    EXPECT_GE(r.clique.size(), greedy_clique(inst.graph).size()) << inst.name;
    if (inst.name == "games120") {
      EXPECT_EQ(r.status, OptStatus::Optimal);
      EXPECT_EQ(r.sat_calls, 0);
      EXPECT_EQ(static_cast<int>(r.clique.size()), r.num_colors);
    }
  }
}

TEST(SatLoop, CliquePinningClosesQueen6) {
  // Pinning a maximum clique to colors 0..5 leaves the K=6 refutation far
  // fewer color relabelings to rule out; it fits in 10k conflicts.
  ColoringOptions options;
  options.conflict_budget = 10000;
  const ColoringOutcome r =
      solve_coloring_sat_loop(make_queen_graph(6, 6), options);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 7);
  EXPECT_EQ(r.clique.size(), 6u);
}

TEST(SatLoop, EmptyGraph) {
  const ColoringOutcome r = solve_coloring_sat_loop(Graph(0), {});
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 0);
}

TEST(SatLoop, CountsSatCalls) {
  ColoringOptions options;
  const ColoringOutcome r =
      solve_coloring_sat_loop(make_myciel_dimacs(3), options);
  EXPECT_GE(r.sat_calls, 1);
  // The engine's counters and the formula size come back with the answer
  // (--satloop --stats).
  EXPECT_GT(r.solver_stats.propagations, 0);
  EXPECT_GT(r.formula_vars, 0);
  EXPECT_GT(r.formula_clauses, 0);
  EXPECT_EQ(r.formula_pb, 0);
}

// The SAT loop throws for the options it cannot honor rather than
// silently ignoring them.
TEST(SatLoop, RejectsShatter) {
  ColoringOptions options;
  options.instance_dependent_sbps = true;
  EXPECT_THROW(solve_coloring_sat_loop(make_myciel_dimacs(3), options),
               std::invalid_argument);
}

TEST(SatLoop, RejectsPresimplify) {
  ColoringOptions options;
  options.presimplify = true;
  EXPECT_THROW(solve_coloring_sat_loop(make_myciel_dimacs(3), options),
               std::invalid_argument);
}

TEST(SatLoop, RejectsGenericIlp) {
  ColoringOptions options;
  options.solver = SolverKind::GenericIlp;
  EXPECT_THROW(solve_coloring_sat_loop(make_myciel_dimacs(3), options),
               std::invalid_argument);
}

// ---- maximal independent sets / Mehrotra-Trick ----

TEST(MaximalCliques, TriangleHasOne) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  const auto cliques = maximal_cliques(g);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1, 2}));
}

TEST(MaximalCliques, PathHasTwoEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  EXPECT_EQ(maximal_cliques(g).size(), 2u);
}

TEST(MaximalCliques, CountMatchesMoonMoserSmall) {
  // C5 has exactly 5 maximal cliques (its edges).
  Graph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.finalize();
  EXPECT_EQ(maximal_cliques(g).size(), 5u);
}

TEST(MaximalCliques, TruncationFlag) {
  const Graph g = make_random_gnm(20, 60, 9);
  bool truncated = false;
  const auto some = maximal_cliques(g, 3, &truncated);
  EXPECT_LE(some.size(), 3u);
  EXPECT_TRUE(truncated);
}

TEST(MaximalIndependentSets, AreIndependentAndMaximal) {
  const Graph g = make_random_gnm(12, 30, 13);
  for (const auto& set : maximal_independent_sets(g)) {
    for (std::size_t a = 0; a < set.size(); ++a) {
      for (std::size_t b = a + 1; b < set.size(); ++b) {
        EXPECT_FALSE(g.has_edge(set[a], set[b]));
      }
    }
    // Maximality: every outside vertex has a neighbour inside.
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (std::find(set.begin(), set.end(), v) != set.end()) continue;
      bool blocked = false;
      for (const int u : set) {
        if (g.has_edge(u, v)) {
          blocked = true;
          break;
        }
      }
      EXPECT_TRUE(blocked);
    }
  }
}

TEST(SetCover, OptimumEqualsChromaticNumber) {
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const Graph g = make_random_gnm(10, 20, seed);
    const auto enc = encode_set_cover_coloring(g);
    ASSERT_TRUE(enc.has_value());
    const OptResult r = minimize(enc->formula, {}, {}, SearchStrategy::Linear);
    ASSERT_EQ(r.status, OptStatus::Optimal);
    EXPECT_EQ(r.best_value, dsaturbnb_chi(g)) << "seed=" << seed;
    const auto coloring = enc->decode(r.model, g.num_vertices());
    EXPECT_TRUE(g.is_proper_coloring(coloring));
  }
}

TEST(SetCover, CapReturnsNullopt) {
  const Graph g = make_random_gnm(20, 40, 17);
  EXPECT_FALSE(encode_set_cover_coloring(g, 2).has_value());
}

TEST(SetCover, FormulationIsNearlySymmetryFree) {
  // The paper: the independent-set formulation "inherently breaks
  // problem symmetries". The encoded formula's group must be tiny
  // compared to the assignment encoding's K! color factor.
  const Graph g = make_queen_graph(4, 4);
  const auto enc = encode_set_cover_coloring(g);
  ASSERT_TRUE(enc.has_value());
  const SymmetryInfo info = detect_symmetries(enc->formula);
  // Only the graph's own automorphisms survive (board symmetries), no
  // color-permutation blowup.
  EXPECT_LE(info.log10_order, 2.0);
}

}  // namespace
}  // namespace symcolor
