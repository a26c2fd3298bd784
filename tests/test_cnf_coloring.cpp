// Tests for PB->CNF conversion, the pure-CNF coloring encodings, the
// SAT-loop optimizer, and the Mehrotra-Trick set-cover formulation.

#include <gtest/gtest.h>

#include "cnf/pb_to_cnf.h"
#include "coloring/cnf_coloring.h"
#include "coloring/dsatur_bnb.h"
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

// ---- pure-CNF coloring encodings ----

class AmoSweep : public ::testing::TestWithParam<int> {};

TEST_P(AmoSweep, DecisionMatchesPbEncoding) {
  const AmoEncoding amo = static_cast<AmoEncoding>(GetParam());
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_random_gnm(10, 22, seed);
    const int chi = dsatur_branch_and_bound(g).num_colors;
    for (const int k : {chi - 1, chi, chi + 1}) {
      if (k < 1) continue;
      ColoringEncoding enc = encode_k_coloring_cnf(g, k, amo);
      EXPECT_EQ(enc.formula.num_pb(), 0);
      CdclSolver solver(enc.formula);
      const SolveResult r = solver.solve();
      ASSERT_NE(r, SolveResult::Unknown);
      EXPECT_EQ(r == SolveResult::Sat, k >= chi)
          << amo_encoding_name(amo) << " seed=" << seed << " k=" << k;
      if (r == SolveResult::Sat) {
        EXPECT_TRUE(g.is_proper_coloring(enc.decode(solver.model())));
      }
    }
  }
}

TEST_P(AmoSweep, SbpRowsStayCorrect) {
  const AmoEncoding amo = static_cast<AmoEncoding>(GetParam());
  const Graph g = make_random_gnm(9, 16, 5);
  const int chi = dsatur_branch_and_bound(g).num_colors;
  for (const SbpOptions& sbps : paper_sbp_rows()) {
    ColoringEncoding enc = encode_k_coloring_cnf(g, chi, amo, sbps);
    EXPECT_EQ(enc.formula.num_pb(), 0) << sbps.label();
    CdclSolver solver(enc.formula);
    EXPECT_EQ(solver.solve(), SolveResult::Sat)
        << amo_encoding_name(amo) << " " << sbps.label();
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, AmoSweep, ::testing::Range(0, 3));

TEST(SatLoop, FindsChromaticNumbers) {
  SatLoopOptions options;
  EXPECT_EQ(solve_coloring_sat_loop(make_myciel_dimacs(3), options).num_colors,
            4);
  EXPECT_EQ(solve_coloring_sat_loop(make_queen_graph(5, 5), options).num_colors,
            5);
}

TEST(SatLoop, AllSearchStrategiesAgree) {
  // Linear, binary and core-guided searches over K must reach the same
  // chromatic number, in both the per-K-rebuild and the incremental
  // (one persistent engine, y(k)-assumption) pipelines.
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const Graph g = make_random_gnm(12, 30, seed);
    const int expected = dsatur_branch_and_bound(g).num_colors;
    for (const bool incremental : {false, true}) {
      for (const SearchStrategy strategy :
           {SearchStrategy::Linear, SearchStrategy::Binary,
            SearchStrategy::CoreGuided}) {
        SatLoopOptions options;
        options.incremental = incremental;
        options.search = strategy;
        const SatLoopResult r = solve_coloring_sat_loop(g, options);
        ASSERT_EQ(r.status, OptStatus::Optimal)
            << "seed=" << seed << " incremental=" << incremental
            << " strategy=" << search_strategy_name(strategy);
        EXPECT_EQ(r.num_colors, expected)
            << "seed=" << seed << " incremental=" << incremental
            << " strategy=" << search_strategy_name(strategy);
        EXPECT_TRUE(g.is_proper_coloring(r.coloring));
      }
    }
  }
}

TEST(SatLoop, EmptyGraph) {
  const SatLoopResult r = solve_coloring_sat_loop(Graph(0), {});
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 0);
}

TEST(SatLoop, CountsSatCalls) {
  SatLoopOptions options;
  const SatLoopResult r =
      solve_coloring_sat_loop(make_myciel_dimacs(3), options);
  EXPECT_GE(r.sat_calls, 1);
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
