// Tests for the NECSP CSP colorer, which assigns vertices in a fixed
// order and breaks value symmetry dynamically.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "coloring/csp_colorer.h"
#include "coloring/dsatur_bnb.h"
#include "graph/generators.h"

namespace symcolor {
namespace {

Graph complete_graph(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

TEST(CspColorer, DecisionMatchesChromaticNumber) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = make_random_gnm(12, 30, seed);
    const int chi = dsatur_branch_and_bound(g).num_colors;
    for (const bool dynamic : {true, false}) {
      CspColorerOptions options;
      options.break_value_symmetry = dynamic;
      options.max_colors = chi;
      EXPECT_TRUE(csp_k_coloring(g, options).satisfiable)
          << "seed=" << seed << " dynamic=" << dynamic;
      if (chi > 1) {
        options.max_colors = chi - 1;
        EXPECT_FALSE(csp_k_coloring(g, options).satisfiable)
            << "seed=" << seed << " dynamic=" << dynamic;
      }
    }
  }
}

TEST(CspColorer, WitnessIsProper) {
  const Graph g = make_queen_graph(5, 5);
  CspColorerOptions options;
  options.max_colors = 5;
  const CspColorerResult r = csp_k_coloring(g, options);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
}

TEST(CspColorer, DynamicRuleShrinksSearch) {
  const Graph g = make_myciel_dimacs(4);
  CspColorerOptions with;
  with.max_colors = 4;  // chi - 1: full refutation needed
  with.break_value_symmetry = true;
  CspColorerOptions without = with;
  without.break_value_symmetry = false;
  const auto a = csp_k_coloring(g, with);
  const auto b = csp_k_coloring(g, without);
  EXPECT_FALSE(a.satisfiable);
  EXPECT_FALSE(b.satisfiable);
  EXPECT_LT(a.nodes, b.nodes);
}

TEST(CspColorer, MinimizationMatchesBnb) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const Graph g = make_random_gnm(14, 40, seed);
    const CspColorerResult r = csp_min_coloring(g);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(Graph::count_colors(r.coloring),
              dsatur_branch_and_bound(g).num_colors)
        << "seed=" << seed;
  }
}

TEST(CspColorer, RejectsZeroColors) {
  CspColorerOptions options;
  options.max_colors = 0;
  EXPECT_THROW((void)csp_k_coloring(complete_graph(2), options),
               std::invalid_argument);
}

TEST(CspColorer, DeadlineStopsSearch) {
  const Graph g = make_random_gnm(60, 1000, 2);
  const CspColorerResult r = csp_min_coloring(
      g, /*break_value_symmetry=*/false, SolveBudget(0.001));
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));  // heuristic incumbent
}

TEST(CspColorer, InterruptedBudgetStopsAtEntryWithProperIncumbent) {
  // myciel5: DSATUR finds 6 colors and the clique bound is 2, so the loop
  // must query K = 5, a refutation the CSP search does not finish in
  // seconds. An interrupted budget stops that query at its first node.
  const Graph g = make_myciel_dimacs(5);
  SolveBudget budget;
  budget.interrupt();
  const CspColorerResult r = csp_min_coloring(g, true, budget);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.nodes, 1);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
}

TEST(CspColorer, CrossThreadInterruptStopsTheSearch) {
  // Same K = 5 query on myciel5. The 60 s backstop deadline only turns a
  // lost interrupt into a failure instead of a hang.
  const Graph g = make_myciel_dimacs(5);
  const SolveBudget budget(60.0);
  std::thread interrupter([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    budget.interrupt();
  });
  const CspColorerResult r = csp_min_coloring(g, true, budget);
  interrupter.join();
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.seconds, 30.0) << "the interrupt did not stop the search";
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
}

}  // namespace
}  // namespace symcolor
