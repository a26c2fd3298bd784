// Tests for the NECSP CSP colorer, which assigns vertices in a fixed
// order and breaks value symmetry dynamically.

#include <gtest/gtest.h>

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
  const Deadline deadline(0.001);
  const CspColorerResult r =
      csp_min_coloring(g, /*break_value_symmetry=*/false, deadline);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));  // heuristic incumbent
}

}  // namespace
}  // namespace symcolor
