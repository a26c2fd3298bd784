// Property-based tests: randomized invariants across module boundaries.
//
//  * chromatic number from the reduction pipeline == DSATUR B&B, under
//    every SBP construction (relabeling-invariance included);
//  * automorphism generators returned by the search are always true
//    automorphisms, and the group order is invariant under relabeling;
//  * lex-leader SBPs never change satisfiability or optimal value;
//  * the CDCL engine agrees with the no-learning B&B on mixed formulas.

#include <gtest/gtest.h>

#include <cmath>

#include "automorphism/search.h"
#include "coloring/dsatur_bnb.h"
#include "coloring/exact_colorer.h"
#include "graph/generators.h"
#include "pb/generic_ilp.h"
#include "pb/optimizer.h"
#include "symmetry/shatter.h"
#include "util/rng.h"

namespace symcolor {
namespace {

class RandomGraphChi : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphChi, ReductionMatchesBnbUnderAllSbpRows) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = 8 + static_cast<int>(rng.below(6));
  const int max_m = n * (n - 1) / 2;
  const int m = static_cast<int>(rng.below(static_cast<std::uint64_t>(max_m)));
  const Graph g = make_random_gnm(n, m, seed * 977 + 3);
  const int chi = dsatur_branch_and_bound(g).num_colors;

  for (const SbpOptions& sbps : paper_sbp_rows()) {
    ColoringOptions options;
    options.max_colors = std::min(n, chi + 2);
    options.sbps = sbps;
    const ColoringOutcome r = solve_coloring(g, options);
    ASSERT_EQ(r.status, OptStatus::Optimal)
        << "seed=" << seed << " sbp=" << sbps.label();
    EXPECT_EQ(r.num_colors, chi) << "seed=" << seed << " sbp=" << sbps.label();
    EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomGraphChi,
                         ::testing::Range<std::uint64_t>(1, 13));

class StrategyAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyAgreement, AllSearchStrategiesMatchBnbAtOneAndTwoThreads) {
  // Linear, binary and core-guided objective search (all on one
  // persistent assumption-driven engine) must agree with DSATUR B&B on
  // randomized graphs, sequentially and under the 2-worker portfolio.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 131 + 7);
  const int n = 7 + static_cast<int>(rng.below(4));
  const int m = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(n * (n - 1) / 2)));
  const Graph g = make_random_gnm(n, m, seed * 613 + 11);
  const int chi = dsatur_branch_and_bound(g).num_colors;

  for (const int threads : {1, 2}) {
    for (const SearchStrategy strategy :
         {SearchStrategy::Linear, SearchStrategy::Binary,
          SearchStrategy::CoreGuided}) {
      ColoringOptions options;
      options.max_colors = std::min(n, chi + 1);
      options.search = strategy;
      options.threads = threads;
      const ColoringOutcome r = solve_coloring(g, options);
      ASSERT_EQ(r.status, OptStatus::Optimal)
          << "seed=" << seed << " strategy=" << search_strategy_name(strategy)
          << " threads=" << threads;
      EXPECT_EQ(r.num_colors, chi)
          << "seed=" << seed << " strategy=" << search_strategy_name(strategy)
          << " threads=" << threads;
      EXPECT_TRUE(g.is_proper_coloring(r.coloring));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrategyAgreement,
                         ::testing::Range<std::uint64_t>(100, 106));

class RelabelInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelabelInvariance, ChromaticNumberInvariant) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_random_gnm(11, 25, seed);
  Rng rng(seed + 1);
  const auto perm = rng.permutation(11);
  const Graph h = g.relabeled(perm);
  EXPECT_EQ(dsatur_branch_and_bound(g).num_colors,
            dsatur_branch_and_bound(h).num_colors);
}

TEST_P(RelabelInvariance, AutomorphismGroupOrderInvariant) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_random_gnm(10, 18, seed);
  Rng rng(seed + 7);
  const auto perm = rng.permutation(10);
  const Graph h = g.relabeled(perm);
  const auto rg = find_automorphisms(g);
  const auto rh = find_automorphisms(h);
  ASSERT_TRUE(rg.complete);
  ASSERT_TRUE(rh.complete);
  EXPECT_NEAR(rg.log10_order, rh.log10_order, 1e-9) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RelabelInvariance,
                         ::testing::Range<std::uint64_t>(20, 30));

class AutomorphismValidity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AutomorphismValidity, GeneratorsAlwaysValid) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = 6 + static_cast<int>(rng.below(8));
  const int m = static_cast<int>(rng.below(static_cast<std::uint64_t>(
      n * (n - 1) / 2)));
  const Graph g = make_random_gnm(n, m, seed * 31);
  const auto r = find_automorphisms(g);
  for (const Perm& p : r.generators) {
    EXPECT_TRUE(is_automorphism(g, p)) << "seed=" << seed;
    EXPECT_FALSE(is_identity(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AutomorphismValidity,
                         ::testing::Range<std::uint64_t>(40, 56));

class ShatterInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShatterInvariance, OptimalColoringValuePreserved) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_random_gnm(9, 16, seed);
  ColoringOptions plain;
  plain.max_colors = 6;
  ColoringOptions broken = plain;
  broken.instance_dependent_sbps = true;
  const ColoringOutcome a = solve_coloring(g, plain);
  const ColoringOutcome b = solve_coloring(g, broken);
  ASSERT_EQ(a.status, OptStatus::Optimal);
  ASSERT_EQ(b.status, OptStatus::Optimal);
  EXPECT_EQ(a.num_colors, b.num_colors) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShatterInvariance,
                         ::testing::Range<std::uint64_t>(60, 70));

class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, CdclAndGenericBnbAgree) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int vars = 9;
  Formula f;
  f.new_vars(vars);
  for (int c = 0; c < 10; ++c) {
    Clause clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    }
    f.add_clause(std::move(clause));
  }
  std::vector<Lit> lits;
  for (int i = 0; i < vars; ++i) lits.push_back(Lit::positive(i));
  f.add_at_most(lits, 2 + static_cast<std::int64_t>(rng.below(3)));
  Objective obj;
  for (int i = 0; i < vars; ++i) obj.terms.push_back({1, Lit::positive(i)});
  f.set_objective(obj);

  const OptResult cdcl = minimize(f, {}, {}, SearchStrategy::Linear);
  const OptResult bnb = solve_generic_ilp(f, {});
  EXPECT_EQ(cdcl.status, bnb.status) << "seed=" << seed;
  if (cdcl.status == OptStatus::Optimal) {
    EXPECT_EQ(cdcl.best_value, bnb.best_value) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineAgreement,
                         ::testing::Range<std::uint64_t>(80, 96));

TEST(Property, ColoringOfEverySuiteInstanceIsProperUnderBudget) {
  // Run the full pipeline briefly on every suite instance; whenever a
  // coloring comes back it must be proper, whatever the status.
  ColoringOptions options;
  options.max_colors = 20;
  options.sbps = SbpOptions::nu_sc();
  options.time_budget_seconds = 0.5;
  for (const Instance& inst : dimacs_suite()) {
    const ColoringOutcome r = solve_coloring(inst.graph, options);
    if (!r.coloring.empty()) {
      EXPECT_TRUE(inst.graph.is_proper_coloring(r.coloring)) << inst.name;
      if (inst.chromatic_number > 0) {
        EXPECT_GE(r.num_colors, std::min(inst.chromatic_number, 20))
            << inst.name;
      }
    }
  }
}

}  // namespace
}  // namespace symcolor
