// Tests for the coloring -> 0-1 ILP encoding (paper Section 2.5).

#include <gtest/gtest.h>

#include "coloring/encoder.h"
#include "pb/optimizer.h"

namespace symcolor {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  return g;
}

TEST(Encoder, VariableCountMatchesPaper) {
  // nK + K variables (paper Section 2.5).
  const Graph g = triangle();
  const ColoringEncoding enc = encode_coloring(g, 4);
  EXPECT_EQ(enc.formula.num_vars(), 3 * 4 + 4);
}

TEST(Encoder, ClauseCountMatchesPaper) {
  // K(m + n + 1) CNF clauses plus n PB equalities. Our PB equalities are
  // stored as one clause-shaped at-least (inside pb list) and one at-most,
  // so the clause list holds exactly the K(m+n+1) connectivity/usage
  // clauses.
  const Graph g = triangle();
  const int k = 4;
  const ColoringEncoding enc = encode_coloring(g, k);
  EXPECT_EQ(enc.formula.num_clauses(), k * (3 + 3 + 1));
  EXPECT_EQ(enc.ilp_equalities, 3);
  EXPECT_EQ(enc.formula.num_pb(), 2 * 3);  // at-least + at-most per vertex
}

TEST(Encoder, VariableLayout) {
  const Graph g = triangle();
  const ColoringEncoding enc = encode_coloring(g, 4);
  EXPECT_EQ(enc.x(0, 0), 0);
  EXPECT_EQ(enc.x(0, 3), 3);
  EXPECT_EQ(enc.x(1, 0), 4);
  EXPECT_EQ(enc.x(2, 3), 11);
  EXPECT_EQ(enc.y(0), 12);
  EXPECT_EQ(enc.y(3), 15);
  EXPECT_EQ(enc.formula.var_name(enc.x(1, 2)), "x_1_2");
  EXPECT_EQ(enc.formula.var_name(enc.y(1)), "y_1");
}

TEST(Encoder, ObjectiveSumsUsageVars) {
  const Graph g = triangle();
  const ColoringEncoding enc = encode_coloring(g, 4);
  ASSERT_TRUE(enc.formula.objective().has_value());
  EXPECT_EQ(enc.formula.objective()->terms.size(), 4u);
}

TEST(Encoder, DecisionVariantHasNoObjective) {
  const Graph g = triangle();
  const ColoringEncoding enc = encode_k_coloring(g, 4);
  EXPECT_FALSE(enc.formula.objective().has_value());
}

TEST(Encoder, TriangleNeedsThreeColors) {
  const ColoringEncoding enc = encode_coloring(triangle(), 4);
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 3);
  const auto colors = enc.decode(r.model);
  EXPECT_TRUE(triangle().is_proper_coloring(colors));
  EXPECT_EQ(Graph::count_colors(colors), 3);
}

TEST(Encoder, TwoColoringDecisionOnTriangleUnsat) {
  const ColoringEncoding enc = encode_k_coloring(triangle(), 2);
  const OptResult r = solve_decision(enc.formula, {}, {});
  EXPECT_EQ(r.status, OptStatus::Infeasible);
}

TEST(Encoder, ThreeColoringDecisionOnTriangleSat) {
  const ColoringEncoding enc = encode_k_coloring(triangle(), 3);
  const OptResult r = solve_decision(enc.formula, {}, {});
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_TRUE(triangle().is_proper_coloring(enc.decode(r.model)));
}

TEST(Encoder, EdgelessGraphOneColor) {
  Graph g(4);
  g.finalize();
  const ColoringEncoding enc = encode_coloring(g, 3);
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 1);
}

TEST(Encoder, BipartiteGraphTwoColors) {
  Graph g(6);
  for (int i = 0; i < 3; ++i) {
    for (int j = 3; j < 6; ++j) g.add_edge(i, j);
  }
  g.finalize();
  const ColoringEncoding enc = encode_coloring(g, 5);
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 2);
}

TEST(Encoder, InsufficientColorsInfeasible) {
  // K5 with only 4 colors available.
  Graph g(5);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) g.add_edge(u, v);
  }
  g.finalize();
  const ColoringEncoding enc = encode_coloring(g, 4);
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Infeasible);
}

TEST(Encoder, RejectsBadArguments) {
  EXPECT_THROW((void)encode_coloring(triangle(), 0), std::invalid_argument);
  Graph unfinalized(2);
  unfinalized.add_edge(0, 1);
  EXPECT_THROW((void)encode_coloring(unfinalized, 2), std::invalid_argument);
}

TEST(Encoder, DecodeRejectsIncompleteModel) {
  const ColoringEncoding enc = encode_coloring(triangle(), 3);
  std::vector<LBool> all_false(
      static_cast<std::size_t>(enc.formula.num_vars()), LBool::False);
  EXPECT_THROW((void)enc.decode(all_false), std::runtime_error);
}

TEST(Encoder, SbpStatsZeroWithoutSbps) {
  const ColoringEncoding enc = encode_coloring(triangle(), 3);
  EXPECT_EQ(enc.sbp_clauses, 0);
  EXPECT_EQ(enc.sbp_pb_constraints, 0);
  EXPECT_EQ(enc.sbp_vars, 0);
}

TEST(SbpOptions, Labels) {
  EXPECT_EQ(SbpOptions::none().label(), "none");
  EXPECT_EQ(SbpOptions::nu_only().label(), "NU");
  EXPECT_EQ(SbpOptions::nu_sc().label(), "NU+SC");
  EXPECT_EQ((SbpOptions{.nu = true, .ca = true, .li = true, .sc = true}).label(),
            "NU+CA+LI+SC");
}

TEST(SbpOptions, PaperRowsInOrder) {
  const auto rows = paper_sbp_rows();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].label(), "none");
  EXPECT_EQ(rows[1].label(), "NU");
  EXPECT_EQ(rows[2].label(), "CA");
  EXPECT_EQ(rows[3].label(), "LI");
  EXPECT_EQ(rows[4].label(), "SC");
  EXPECT_EQ(rows[5].label(), "NU+SC");
  EXPECT_EQ(rows[6].label(), "LIq");
}

}  // namespace
}  // namespace symcolor
