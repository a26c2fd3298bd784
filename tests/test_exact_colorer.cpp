// Integration tests for the full pipeline: encode -> (SBPs) -> solve ->
// decode, across solver personalities and SBP configurations, cross-
// checked against the problem-specific DSATUR branch and bound.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "coloring/dsatur_bnb.h"
#include "coloring/exact_colorer.h"
#include "graph/generators.h"

namespace symcolor {
namespace {

TEST(ExactColorer, Myciel3ChromaticNumber) {
  ColoringOptions options;
  options.max_colors = 8;
  const ColoringOutcome r = solve_coloring(make_myciel_dimacs(3), options);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 4);
  EXPECT_FALSE(r.coloring.empty());
}

TEST(ExactColorer, Queen5ChromaticNumber) {
  ColoringOptions options;
  options.max_colors = 7;
  options.sbps = SbpOptions::nu_sc();
  const ColoringOutcome r = solve_coloring(make_queen_graph(5, 5), options);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 5);
}

TEST(ExactColorer, InfeasibleWhenBoundTooTight) {
  ColoringOptions options;
  options.max_colors = 3;
  const ColoringOutcome r = solve_coloring(make_myciel_dimacs(3), options);
  EXPECT_EQ(r.status, OptStatus::Infeasible);
  EXPECT_TRUE(r.coloring.empty());
}

TEST(ExactColorer, DecisionMode) {
  ColoringOptions options;
  options.max_colors = 4;
  EXPECT_EQ(solve_k_coloring(make_myciel_dimacs(3), options).status,
            OptStatus::Optimal);
  options.max_colors = 3;
  EXPECT_EQ(solve_k_coloring(make_myciel_dimacs(3), options).status,
            OptStatus::Infeasible);
}

TEST(ExactColorer, InstanceDependentSbpsRecordStats) {
  ColoringOptions options;
  options.max_colors = 6;
  options.instance_dependent_sbps = true;
  const ColoringOutcome r = solve_coloring(make_myciel_dimacs(3), options);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 4);
  ASSERT_TRUE(r.symmetry.has_value());
  // Color permutations alone give 6! symmetries in the K=6 encoding.
  EXPECT_GE(r.symmetry->log10_order, std::log10(720.0) - 1e-6);
  EXPECT_GT(r.inst_dep_sbp_clauses, 0);
}

TEST(ExactColorer, TimeBudgetHonored) {
  ColoringOptions options;
  options.max_colors = 12;
  options.time_budget_seconds = 0.01;
  const ColoringOutcome r =
      solve_coloring(make_random_gnm(70, 1200, 5), options);
  // Must return quickly with a non-wrong status.
  EXPECT_LT(r.total_seconds, 5.0);
}

TEST(ExactColorer, AllSearchStrategiesAgree) {
  ColoringOptions linear;
  linear.max_colors = 7;
  // NU+SC keeps the low-bound UNSAT probes cheap; the no-SBP strategy
  // sweep lives in test_property's StrategyAgreement.
  linear.sbps = SbpOptions::nu_sc();
  ColoringOptions binary = linear;
  binary.search = SearchStrategy::Binary;
  ColoringOptions core = linear;
  core.search = SearchStrategy::CoreGuided;
  const Graph g = make_myciel_dimacs(4);
  const ColoringOutcome a = solve_coloring(g, linear);
  const ColoringOutcome b = solve_coloring(g, binary);
  const ColoringOutcome c = solve_coloring(g, core);
  ASSERT_EQ(a.status, OptStatus::Optimal);
  ASSERT_EQ(b.status, OptStatus::Optimal);
  ASSERT_EQ(c.status, OptStatus::Optimal);
  EXPECT_EQ(a.num_colors, b.num_colors);
  EXPECT_EQ(a.num_colors, c.num_colors);
}

// The pipeline has no pre-solve simplifier: every entry point throws for
// the compat field rather than silently ignoring it.
TEST(ExactColorer, RejectsPresimplify) {
  ColoringOptions options;
  options.max_colors = 6;
  options.presimplify = true;
  const Graph g = make_myciel_dimacs(3);
  EXPECT_THROW(solve_coloring(g, options), std::invalid_argument);
  EXPECT_THROW(solve_k_coloring(g, options), std::invalid_argument);
}

TEST(ExactColorer, RejectsCubeDepth) {
  // The parallel engine has one cube depth; the compat field must stay 0.
  ColoringOptions options;
  options.max_colors = 6;
  options.threads = 2;
  options.cube_depth = 4;
  const Graph g = make_myciel_dimacs(3);
  EXPECT_THROW(solve_coloring(g, options), std::invalid_argument);
  EXPECT_THROW(solve_k_coloring(g, options), std::invalid_argument);
  EXPECT_THROW(solve_coloring_sat_loop(g, options), std::invalid_argument);
}

struct PipelineCase {
  int sbp_row;
  bool inst_dep;
  int solver_index;
};

class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(PipelineSweep, AgreesWithDsaturBnbOnSmallGraphs) {
  const auto [sbp_row, inst_dep, solver_index] = GetParam();
  const SolverKind solvers[] = {SolverKind::PbsII, SolverKind::Galena,
                                SolverKind::Pueblo, SolverKind::GenericIlp};
  ColoringOptions options;
  options.max_colors = 5;
  options.sbps = paper_sbp_rows()[static_cast<std::size_t>(sbp_row)];
  options.instance_dependent_sbps = inst_dep;
  options.solver = solvers[solver_index];

  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const Graph g = make_random_gnm(12, 28, seed);
    const int expected = dsatur_branch_and_bound(g).num_colors;
    const ColoringOutcome r = solve_coloring(g, options);
    if (expected > options.max_colors) {
      EXPECT_EQ(r.status, OptStatus::Infeasible);
      continue;
    }
    ASSERT_EQ(r.status, OptStatus::Optimal)
        << "sbp=" << options.sbps.label() << " instdep=" << inst_dep
        << " solver=" << solver_name(options.solver) << " seed=" << seed;
    EXPECT_EQ(r.num_colors, expected);
    EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PipelineSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Bool(),
                                            ::testing::Range(0, 4)));

TEST(ExactColorer, SuiteSmallInstancesMatchPinnedChromaticNumbers) {
  ColoringOptions options;
  options.max_colors = 8;
  options.sbps = SbpOptions::nu_sc();
  options.instance_dependent_sbps = true;
  for (const Instance& inst : dimacs_suite()) {
    if (inst.graph.num_vertices() > 50) continue;  // keep the test fast
    if (inst.chromatic_number < 0 ||
        inst.chromatic_number > options.max_colors) {
      continue;
    }
    const ColoringOutcome r = solve_coloring(inst.graph, options);
    ASSERT_EQ(r.status, OptStatus::Optimal) << inst.name;
    EXPECT_EQ(r.num_colors, inst.chromatic_number) << inst.name;
  }
}

}  // namespace
}  // namespace symcolor
