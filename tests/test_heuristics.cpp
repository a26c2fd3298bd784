// Tests for the DSATUR heuristic and the exact DSATUR branch and bound.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "coloring/dsatur_bnb.h"
#include "coloring/heuristics.h"
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

Graph even_cycle(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.finalize();
  return g;
}

TEST(Dsatur, OptimalOnBipartite) {
  // DSATUR is exact on bipartite graphs (Brelaz).
  const Graph g = even_cycle(10);
  const auto colors = dsatur_coloring(g);
  EXPECT_TRUE(g.is_proper_coloring(colors));
  EXPECT_EQ(Graph::count_colors(colors), 2);
}

TEST(Dsatur, OddCycleThreeColors) {
  const Graph g = even_cycle(9);  // odd length
  EXPECT_EQ(Graph::count_colors(dsatur_coloring(g)), 3);
}

TEST(Dsatur, CompleteGraph) {
  EXPECT_EQ(Graph::count_colors(dsatur_coloring(complete_graph(6))), 6);
}

TEST(Dsatur, EdgelessGraph) {
  Graph g(5);
  g.finalize();
  EXPECT_EQ(Graph::count_colors(dsatur_coloring(g)), 1);
}

TEST(DsaturBnb, EmptyGraph) {
  const auto r = dsatur_branch_and_bound(Graph(0));
  EXPECT_EQ(r.num_colors, 0);
  EXPECT_TRUE(r.proved_optimal);
}

TEST(DsaturBnb, KnownChromaticNumbers) {
  EXPECT_EQ(dsatur_branch_and_bound(complete_graph(6)).num_colors, 6);
  EXPECT_EQ(dsatur_branch_and_bound(even_cycle(8)).num_colors, 2);
  EXPECT_EQ(dsatur_branch_and_bound(even_cycle(9)).num_colors, 3);
}

TEST(DsaturBnb, MycielskiFamily) {
  // chi(myciel_k DIMACS) = k + 1; triangle-free makes these hard for
  // clique-based bounds, a good stress for the search itself.
  EXPECT_EQ(dsatur_branch_and_bound(make_myciel_dimacs(3)).num_colors, 4);
  EXPECT_EQ(dsatur_branch_and_bound(make_myciel_dimacs(4)).num_colors, 5);
}

TEST(DsaturBnb, QueenGraphs) {
  EXPECT_EQ(dsatur_branch_and_bound(make_queen_graph(5, 5)).num_colors, 5);
  EXPECT_EQ(dsatur_branch_and_bound(make_queen_graph(6, 6)).num_colors, 7);
}

TEST(DsaturBnb, WitnessIsProper) {
  const Graph g = make_random_gnm(30, 150, 21);
  const auto r = dsatur_branch_and_bound(g);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  EXPECT_EQ(Graph::count_colors(r.coloring), r.num_colors);
}

TEST(DsaturBnb, NeverWorseThanDsaturHeuristic) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = make_random_gnm(25, 120, seed);
    const auto r = dsatur_branch_and_bound(g);
    EXPECT_LE(r.num_colors,
              Graph::count_colors(dsatur_coloring(g)));
  }
}

TEST(DsaturBnb, DeadlineGivesValidIncumbent) {
  const Graph g = make_random_gnm(60, 900, 4);
  const auto r = dsatur_branch_and_bound(g, SolveBudget(0.005));
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
}

TEST(DsaturBnb, InterruptedBudgetStopsAtEntryWithProperIncumbent) {
  // myciel5: DSATUR's 6 colors are optimal, but proving it takes the
  // search ~450k nodes. An interrupted budget stops it at its first node.
  const Graph g = make_myciel_dimacs(5);
  SolveBudget budget;
  budget.interrupt();
  const auto r = dsatur_branch_and_bound(g, budget);
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_LE(r.nodes, 1);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  EXPECT_EQ(r.num_colors, Graph::count_colors(r.coloring));
}

TEST(DsaturBnb, CrossThreadInterruptStopsTheSearch) {
  // G(80, 1600) keeps the search busy for many seconds. The 60 s backstop
  // deadline only turns a lost interrupt into a failure instead of a hang.
  const Graph g = make_random_gnm(80, 1600, 1);
  const SolveBudget budget(60.0);
  std::thread interrupter([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    budget.interrupt();
  });
  const auto r = dsatur_branch_and_bound(g, budget);
  interrupter.join();
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_LT(r.seconds, 30.0) << "the interrupt did not stop the search";
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  EXPECT_EQ(r.num_colors, Graph::count_colors(r.coloring));
}

}  // namespace
}  // namespace symcolor
