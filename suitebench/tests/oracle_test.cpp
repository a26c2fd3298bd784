// The oracle must accept right answers and reject planted wrong ones.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "oracle.h"

namespace suitebench {
namespace {

using symcolor::Graph;
using symcolor::OptStatus;

class OracleTest : public ::testing::Test {
 protected:
  // myciel3: 11 vertices, chi = 4, triangle-free (clique floor 2).
  Graph graph = symcolor::make_myciel_dimacs(3);
  Expectation expect{4, 4};
  // A proper 4-coloring found by greedy search over the vertex order.
  std::vector<int> coloring = [this] {
    std::vector<int> colors(static_cast<std::size_t>(graph.num_vertices()), -1);
    for (int v = 0; v < graph.num_vertices(); ++v) {
      std::vector<bool> used(8, false);
      for (const int u : graph.neighbors(v)) {
        if (colors[static_cast<std::size_t>(u)] >= 0) {
          used[static_cast<std::size_t>(colors[static_cast<std::size_t>(u)])] = true;
        }
      }
      int c = 0;
      while (used[static_cast<std::size_t>(c)]) ++c;
      colors[static_cast<std::size_t>(v)] = c;
    }
    return colors;
  }();

  Answer optimal() const {
    Answer a;
    a.status = OptStatus::Optimal;
    a.coloring = coloring;
    a.num_colors = Graph::count_colors(coloring);
    a.lower_bound = a.num_colors;
    a.max_colors = 20;
    return a;
  }
};

TEST_F(OracleTest, AcceptsTheRightAnswer) {
  ASSERT_EQ(Graph::count_colors(coloring), 4);
  EXPECT_EQ(check_answer(graph, expect, optimal()), "");
}

TEST_F(OracleTest, RejectsAPlantedWrongChromaticNumber) {
  Expectation wrong = expect;
  wrong.chi = 3;
  wrong.chi_floor = 2;
  EXPECT_NE(check_answer(graph, wrong, optimal()), "");
}

TEST_F(OracleTest, RejectsAnImproperColoring) {
  std::vector<int> bad = coloring;
  const symcolor::Edge e = graph.edges()[0];
  bad[static_cast<std::size_t>(e.v)] = bad[static_cast<std::size_t>(e.u)];
  Answer a = optimal();
  a.coloring = bad;
  a.num_colors = Graph::count_colors(bad);
  EXPECT_EQ(check_answer(graph, expect, a), "improper coloring");
}

TEST_F(OracleTest, RejectsAColorCountThatDisagreesWithTheColoring) {
  Answer a = optimal();
  a.num_colors = 5;
  EXPECT_NE(check_answer(graph, expect, a), "");
}

TEST_F(OracleTest, RejectsAnInfeasibleClaimBelowTheChromaticNumber) {
  Answer a;
  a.status = OptStatus::Infeasible;
  a.max_colors = 20;
  EXPECT_NE(check_answer(graph, expect, a), "");
  a.max_colors = 3;
  EXPECT_EQ(check_answer(graph, expect, a), "");
}

TEST_F(OracleTest, InfeasibleNeedsABound) {
  Answer a;
  a.status = OptStatus::Infeasible;
  a.max_colors = 0;  // the SAT loop has no K to be infeasible at
  EXPECT_NE(check_answer(graph, Expectation{}, a), "");
}

TEST_F(OracleTest, ChecksBoundsOfUnprovenAnswers) {
  Answer a = optimal();
  a.status = OptStatus::Feasible;
  a.lower_bound = 3;
  EXPECT_EQ(check_answer(graph, expect, a), "");
  a.lower_bound = 5;  // above chi
  EXPECT_NE(check_answer(graph, expect, a), "");
  a.lower_bound = 5;
  EXPECT_NE(check_answer(graph, Expectation{-1, 2}, a), "");  // above incumbent
}

TEST_F(OracleTest, RejectsAColoringBeyondTheEncodingBound) {
  Answer a = optimal();
  a.max_colors = 3;
  EXPECT_NE(check_answer(graph, expect, a), "");
}

TEST_F(OracleTest, TheSafetyWallIsAnError) {
  Answer a = optimal();
  a.wall_tripped = true;
  EXPECT_NE(check_answer(graph, expect, a), "");
}

}  // namespace
}  // namespace suitebench
