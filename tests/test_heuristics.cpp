// Tests for the DSATUR heuristic and the exact DSATUR branch and bound.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "coloring/dsatur_bnb.h"
#include "coloring/exact_colorer.h"
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

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

Graph star_graph(int n) {
  Graph g(n);
  for (int leaf = 1; leaf < n; ++leaf) g.add_edge(0, leaf);
  g.finalize();
  return g;
}

TEST(Dsatur, LongPathUsesTwoColors) {
  // The saturation flags are sized by the colors in use, not by n: a
  // 30,000-vertex path needs 2 flags per vertex, not 30,001.
  const Graph g = path_graph(30000);
  const auto colors = dsatur_coloring(g);
  EXPECT_TRUE(g.is_proper_coloring(colors));
  EXPECT_EQ(Graph::count_colors(colors), 2);
}

TEST(DsaturMemory, FortyThousandVertexStarClosesByBounds) {
  // A flag row of max degree + 1 bytes per vertex would take 1.6 GB here;
  // the flags of the colors in use take 80 KB. CI reruns this test under
  // a 1 GB address-space limit.
  const Graph g = star_graph(40000);
  const auto colors = dsatur_coloring(g);
  EXPECT_TRUE(g.is_proper_coloring(colors));
  EXPECT_EQ(Graph::count_colors(colors), 2);

  const ColoringOutcome r = solve_coloring_sat_loop(g, ColoringOptions{});
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 2);
  EXPECT_EQ(r.lower_bound, 2);
  EXPECT_EQ(r.sat_calls, 0) << "the bounds must close the star";
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
}

// DSATUR with per-pick saturation and Graph::degree() comparisons and an
// n + 1 flag row per vertex, kept verbatim: the precomputed key must pick
// the same vertex at every step, so the colorings are identical.
std::vector<int> reference_dsatur(const Graph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> colors(static_cast<std::size_t>(n), -1);
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  std::vector<char> neighbour_has(static_cast<std::size_t>(n) * stride, 0);
  const auto has = [&](int v, int color) -> char& {
    return neighbour_has[static_cast<std::size_t>(v) * stride +
                         static_cast<std::size_t>(color)];
  };
  std::vector<int> saturation(static_cast<std::size_t>(n), 0);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (colors[static_cast<std::size_t>(v)] >= 0) continue;
      if (best < 0 ||
          saturation[static_cast<std::size_t>(v)] >
              saturation[static_cast<std::size_t>(best)] ||
          (saturation[static_cast<std::size_t>(v)] ==
               saturation[static_cast<std::size_t>(best)] &&
           graph.degree(v) > graph.degree(best))) {
        best = v;
      }
    }
    int color = 0;
    while (has(best, color)) ++color;
    colors[static_cast<std::size_t>(best)] = color;
    for (const int u : graph.neighbors(best)) {
      if (!has(u, color)) {
        has(u, color) = 1;
        ++saturation[static_cast<std::size_t>(u)];
      }
    }
  }
  return colors;
}

// The O(n^2) DSATUR this file's dsatur_coloring replaced, kept verbatim:
// one precomputed key per vertex, scanned in full for every pick, and a
// flag row of max degree + 1 bytes per vertex. Its memory follows the
// maximum degree, not n, so it also checks the large sparse inputs.
std::vector<int> keyed_reference_dsatur(const Graph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> colors(static_cast<std::size_t>(n), -1);
  // The color picked for v is the least one absent from its neighbours,
  // so at most deg(v) <= max degree: a row of max degree + 1 flags per
  // vertex holds every color a neighbour can take, in one flat strided
  // buffer so the update loops stay in-cache.
  const std::size_t stride = static_cast<std::size_t>(graph.max_degree()) + 1;
  std::vector<char> neighbour_has(static_cast<std::size_t>(n) * stride, 0);
  const auto has = [&](int v, int color) -> char& {
    return neighbour_has[static_cast<std::size_t>(v) * stride +
                         static_cast<std::size_t>(color)];
  };
  // key[v] = saturation(v) * stride + degree(v) while v is uncolored, -1
  // once colored. Degree and saturation are at most the max degree, so the
  // key orders by saturation, then degree, and stays below 2^62 for any n.
  const auto step_key = static_cast<std::int64_t>(stride);
  std::vector<std::int64_t> key(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    key[static_cast<std::size_t>(v)] = graph.degree(v);
  }

  for (int step = 0; step < n; ++step) {
    // Pick the uncolored vertex with max saturation, tie-break degree,
    // then the lower index (the first maximum).
    int best = 0;
    std::int64_t best_key = -1;
    for (int v = 0; v < n; ++v) {
      if (key[static_cast<std::size_t>(v)] > best_key) {
        best = v;
        best_key = key[static_cast<std::size_t>(v)];
      }
    }
    int color = 0;
    while (has(best, color)) ++color;
    colors[static_cast<std::size_t>(best)] = color;
    key[static_cast<std::size_t>(best)] = -1;
    for (const int u : graph.neighbors(best)) {
      if (key[static_cast<std::size_t>(u)] >= 0 && !has(u, color)) {
        has(u, color) = 1;
        key[static_cast<std::size_t>(u)] += step_key;
      }
    }
  }
  return colors;
}

TEST(DsaturEquivalence, SeededRandomGraphs) {
  std::uint64_t seed = 0xD5A;
  for (const int n : {1, 2, 7, 20, 45, 90, 140, 200}) {
    const int pairs = n * (n - 1) / 2;
    for (const int percent : {1, 4, 15, 40, 65, 85, 97}) {
      for (int rep = 0; rep < 2; ++rep) {
        const int m = pairs * percent / 100;
        const Graph g = make_random_gnm(n, m, ++seed);
        EXPECT_EQ(dsatur_coloring(g), reference_dsatur(g))
            << "G(" << n << ", " << m << ") seed " << seed;
      }
    }
  }
}

TEST(DsaturEquivalence, DimacsSuite) {
  for (const Instance& inst : dimacs_suite()) {
    EXPECT_EQ(dsatur_coloring(inst.graph), reference_dsatur(inst.graph))
        << inst.name;
  }
}

TEST(DsaturEquivalence, SkewedRegisterGraphsWithHubs) {
  // The pressure clique's vertices are hubs: every fringe vertex joins a
  // window of them, so their degrees run to hundreds against a fringe
  // degree near 2m/n. Picks move between the hubs' top ranks and the
  // fringe's far ones.
  std::uint64_t seed = 0x4E6;
  for (const int n : {300, 1200, 4000}) {
    for (const int pressure : {4, 12, 40}) {
      for (const int edges_per_vertex : {3, 10}) {
        const int m = n * edges_per_vertex;
        const Graph g = make_register_graph(n, m, pressure, ++seed);
        EXPECT_EQ(dsatur_coloring(g), keyed_reference_dsatur(g))
            << "register(" << n << ", " << m << ", " << pressure
            << ") seed " << seed;
      }
    }
  }
}

TEST(DsaturEquivalence, ManyColors) {
  // Color counts from 9 to 60: the flags grow one column per new color
  // many times over, and saturations climb through as many levels.
  std::uint64_t seed = 0xC0105;
  for (const int n : {40, 60, 90}) {
    for (const int percent : {60, 80, 95}) {
      const int m = n * (n - 1) / 2 * percent / 100;
      const Graph g = make_random_gnm(n, m, ++seed);
      const auto colors = dsatur_coloring(g);
      EXPECT_GT(Graph::count_colors(colors), 8) << n << " " << percent;
      EXPECT_EQ(colors, keyed_reference_dsatur(g)) << n << " " << percent;
    }
  }
  for (const int n : {9, 17, 33, 60}) {
    const Graph g = complete_graph(n);
    EXPECT_EQ(dsatur_coloring(g), keyed_reference_dsatur(g)) << "K" << n;
  }
  const Graph queens = make_queen_graph(8, 12);
  EXPECT_EQ(dsatur_coloring(queens), keyed_reference_dsatur(queens));
}

TEST(DsaturEquivalence, LongPath) {
  // After the first pick, every pick is the next vertex along the path,
  // taken from saturation level 1 while the far end waits at a high rank.
  const Graph g = path_graph(30000);
  EXPECT_EQ(dsatur_coloring(g), keyed_reference_dsatur(g));
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
