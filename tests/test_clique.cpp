// Tests for greedy and exact clique computation.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/clique.h"
#include "graph/generators.h"

namespace symcolor {
namespace {

Graph complete(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

TEST(GreedyClique, EmptyGraph) {
  Graph g(0);
  EXPECT_TRUE(greedy_clique(g).empty());
}

TEST(GreedyClique, SingleVertex) {
  Graph g(1);
  g.finalize();
  EXPECT_EQ(greedy_clique(g).size(), 1u);
}

TEST(GreedyClique, FindsCompleteGraph) {
  const Graph g = complete(6);
  EXPECT_EQ(greedy_clique(g).size(), 6u);
}

TEST(GreedyClique, ResultIsAlwaysClique) {
  const Graph g = make_random_gnm(40, 300, 11);
  const auto clique = greedy_clique(g);
  EXPECT_TRUE(is_clique(g, clique));
  EXPECT_GE(clique.size(), 2u);
}

TEST(GreedyClique, EdgelessGraphGivesSingleton) {
  Graph g(5);
  g.finalize();
  EXPECT_EQ(greedy_clique(g).size(), 1u);
}

TEST(MaxClique, CompleteGraphExact) {
  bool proved = false;
  const auto clique = max_clique(complete(7), Deadline{}, &proved);
  EXPECT_EQ(clique.size(), 7u);
  EXPECT_TRUE(proved);
}

TEST(MaxClique, CycleOfFive) {
  Graph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.finalize();
  EXPECT_EQ(max_clique(g).size(), 2u);
}

TEST(MaxClique, PlantedCliqueFound) {
  // A 9-clique planted in a sparse background must be found exactly.
  const Graph g = make_book_graph(50, 250, 9, 77);
  bool proved = false;
  const auto clique = max_clique(g, Deadline{}, &proved);
  EXPECT_TRUE(proved);
  EXPECT_EQ(clique.size(), 9u);
  EXPECT_TRUE(is_clique(g, clique));
}

TEST(MaxClique, QueenGraphKnownValue) {
  // queen5_5 contains a 5-clique (a row) and no 6-clique.
  const auto clique = max_clique(make_queen_graph(5, 5));
  EXPECT_EQ(clique.size(), 5u);
}

TEST(MaxClique, MycielskiIsTriangleFree) {
  const auto clique = max_clique(make_mycielski(5));
  EXPECT_EQ(clique.size(), 2u);
}

TEST(MaxClique, AtLeastGreedy) {
  const Graph g = make_random_gnm(35, 250, 5);
  EXPECT_GE(max_clique(g).size(), greedy_clique(g).size());
}

// G(125, 6961): the DSJC125.9 shape, whose clique number the branch and
// bound cannot prove within a small node cap.
Graph dense_random() { return make_random_gnm(125, 6961, 0xD59); }

TEST(MaxClique, NodeCapIsDeterministic) {
  const Graph g = dense_random();
  bool proved_a = true;
  bool proved_b = true;
  const auto a = max_clique(g, SolveBudget{}, &proved_a, 1000);
  const auto b = max_clique(g, SolveBudget{}, &proved_b, 1000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(proved_a, proved_b);
  EXPECT_TRUE(is_clique(g, a));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(MaxClique, BindingNodeCapIsNotProved) {
  const Graph g = dense_random();
  bool proved = true;
  const auto clique = max_clique(g, SolveBudget{}, &proved, 1000);
  EXPECT_FALSE(proved);
  EXPECT_TRUE(is_clique(g, clique));
  EXPECT_GE(clique.size(), greedy_clique(g).size());
}

TEST(MaxClique, LooseNodeCapStillProves) {
  const Graph g = make_queen_graph(8, 12);
  bool proved = false;
  const auto clique = max_clique(g, SolveBudget{}, &proved, 1000);
  EXPECT_TRUE(proved);
  EXPECT_EQ(clique.size(), 12u);
  EXPECT_GT(clique.size(), greedy_clique(g).size());
}

TEST(MaxClique, StopsAtCallerUpperBound) {
  // A clique as large as a known upper bound on omega is maximum, so the
  // search stops there and reports a proof, even under a cap that would
  // otherwise bind.
  const Graph g = dense_random();
  const auto capped = max_clique(g, SolveBudget{}, nullptr, 1000);
  bool proved = false;
  const auto clique = max_clique(g, SolveBudget{}, &proved, 1000,
                                 static_cast<int>(capped.size()));
  EXPECT_TRUE(proved);
  EXPECT_EQ(clique.size(), capped.size());
  EXPECT_TRUE(is_clique(g, clique));
}

TEST(MaxClique, InterruptedBudgetStops) {
  const Graph g = dense_random();
  const SolveBudget budget;
  budget.interrupt();
  bool proved = true;
  const auto clique = max_clique(g, budget, &proved);
  EXPECT_FALSE(proved);
  EXPECT_EQ(clique, greedy_clique(g));
}

TEST(IsClique, Basics) {
  const Graph g = complete(4);
  EXPECT_TRUE(is_clique(g, {0, 1, 2, 3}));
  EXPECT_TRUE(is_clique(g, {2}));
  EXPECT_TRUE(is_clique(g, {}));
  Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.finalize();
  EXPECT_FALSE(is_clique(path, {0, 1, 2}));
}

}  // namespace
}  // namespace symcolor
