// Tests for partition refinement and the IR automorphism search, cross-
// checked against Schreier-Sims group orders on graphs with known
// automorphism groups, and generator for generator against the plain
// reference search of reference_automorphism.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "automorphism/group.h"
#include "automorphism/refinement.h"
#include "automorphism/search.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "reference_automorphism.h"
#include "symmetry/formula_graph.h"
#include "util/rng.h"

namespace symcolor {
namespace {

Graph cycle_graph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.finalize();
  return g;
}

Graph complete_graph(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

Graph star_graph(int leaves) {
  Graph g(leaves + 1);
  for (int i = 1; i <= leaves; ++i) g.add_edge(0, i);
  g.finalize();
  return g;
}

Graph petersen() {
  Graph g(10);
  for (int i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);        // outer 5-cycle
    g.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    g.add_edge(i, 5 + i);              // spokes
  }
  g.finalize();
  return g;
}

/// Path graph 0-1-2-...-n-1 (automorphism group of order 2).
Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

double search_log10_order(const Graph& g, std::span<const int> colors = {}) {
  return find_automorphisms(g, colors).log10_order;
}

/// Schreier-Sims order of the group generated by the search's output.
double generated_log10_order(const Graph& g,
                             std::span<const int> colors = {}) {
  const AutomorphismResult result = find_automorphisms(g, colors);
  PermGroup group(g.num_vertices());
  for (const Perm& p : result.generators) group.add_generator(p);
  return group.log10_order();
}

TEST(Refinement, InitialCellsFollowColors) {
  const std::vector<int> colors{1, 0, 1, 0};
  OrderedPartition p(4, colors);
  EXPECT_EQ(p.num_cells(), 2);
  EXPECT_FALSE(p.discrete());
}

TEST(Refinement, RefineSplitsByDegree) {
  // A path 0-1-2: ends vs middle have different degrees.
  const Graph g = path_graph(3);
  OrderedPartition p(3, {});
  std::vector<int> all{0};
  p.refine(g, all);
  EXPECT_EQ(p.num_cells(), 2);
  // Middle vertex 1 must be alone in its cell.
  const int middle_cell = p.cell_of(1);
  EXPECT_EQ(p.cell(middle_cell).size, 1);
  EXPECT_EQ(p.cell_of(0), p.cell_of(2));
}

TEST(Refinement, RegularGraphDoesNotSplit) {
  const Graph g = cycle_graph(6);
  OrderedPartition p(6, {});
  p.refine(g, std::vector<int>{0});
  EXPECT_EQ(p.num_cells(), 1);
}

TEST(Refinement, IndividualizeCreatesSingleton) {
  const Graph g = cycle_graph(6);
  OrderedPartition p(6, {});
  p.refine(g, std::vector<int>{0});
  const int cell = p.individualize(3);
  EXPECT_EQ(p.cell(cell).size, 1);
  EXPECT_EQ(p.cell_elements(cell)[0], 3);
  EXPECT_EQ(p.num_cells(), 2);
  // Refining after individualization splits neighbours from the rest.
  p.refine(g, std::vector<int>{cell});
  EXPECT_GT(p.num_cells(), 2);
}

TEST(Refinement, DiscreteLabeling) {
  const Graph g = path_graph(2);
  OrderedPartition p(2, std::vector<int>{0, 1});
  EXPECT_TRUE(p.discrete());
  const auto label = p.labeling();
  EXPECT_EQ(label.size(), 2u);
}

TEST(Refinement, TraceIsDeterministic) {
  const Graph g = petersen();
  OrderedPartition p1(10, {});
  OrderedPartition p2(10, {});
  EXPECT_EQ(p1.refine(g, std::vector<int>{0}), p2.refine(g, std::vector<int>{0}));
}

TEST(Refinement, MatchesReferenceAlongRandomPaths) {
  // Touched-only splits must reproduce the whole-cell sort of the
  // reference refinement: same traces, same element order. One scratch
  // is shared by every partition, as in the search, including after
  // refinements that stopped early at a discrete partition.
  RefineScratch shared;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const int n = 3 + static_cast<int>(rng.below(30));
    const Graph g = make_random_gnm(
        n, static_cast<int>(rng.below(static_cast<std::uint64_t>(n * (n - 1) / 2 + 1))),
        seed);
    for (int path = 0; path < 3; ++path) {
      OrderedPartition p(n, {});
      reference::Partition want(n, {});
      const std::vector<int> all{0};
      ASSERT_EQ(p.refine(g, all, shared), want.refine(g, all)) << "seed=" << seed;
      while (!p.discrete()) {
        const std::span<const int> cell = p.cell_elements(p.target_cell());
        const int v = cell[rng.below(cell.size())];
        const std::vector<int> p_cell{p.individualize(v)};
        const std::vector<int> want_cell{want.individualize(v)};
        ASSERT_EQ(p.refine(g, p_cell, shared), want.refine(g, want_cell))
            << "seed=" << seed;
        ASSERT_TRUE(std::equal(p.elements().begin(), p.elements().end(),
                               want.elements().begin()))
            << "seed=" << seed;
      }
    }
  }
}

TEST(IsAutomorphism, ValidatesEdgesAndColors) {
  const Graph g = path_graph(3);
  EXPECT_TRUE(is_automorphism(g, Perm{2, 1, 0}));
  EXPECT_FALSE(is_automorphism(g, Perm{1, 0, 2}));
  const std::vector<int> colors{0, 1, 2};
  EXPECT_FALSE(is_automorphism(g, Perm{2, 1, 0}, colors));  // colors differ
}

TEST(Search, RigidGraphHasTrivialGroup) {
  // The smallest asymmetric tree: a center with branches of lengths
  // 1, 2 and 3 (distinct branch shapes leave no symmetry).
  Graph g(7);
  g.add_edge(0, 1);  // branch of length 1
  g.add_edge(0, 2);  // branch of length 2
  g.add_edge(2, 3);
  g.add_edge(0, 4);  // branch of length 3
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.finalize();
  const AutomorphismResult r = find_automorphisms(g);
  EXPECT_TRUE(r.generators.empty());
  EXPECT_DOUBLE_EQ(r.log10_order, 0.0);
  EXPECT_TRUE(r.complete);
}

TEST(Search, PathGraphOrderTwo) {
  EXPECT_NEAR(search_log10_order(path_graph(5)), std::log10(2.0), 1e-9);
}

TEST(Search, CompleteGraphIsSymmetric) {
  // |Aut(K6)| = 6! = 720.
  EXPECT_NEAR(search_log10_order(complete_graph(6)), std::log10(720.0), 1e-6);
}

TEST(Search, EdgelessGraphIsSymmetric) {
  Graph g(5);
  g.finalize();
  EXPECT_NEAR(search_log10_order(g), std::log10(120.0), 1e-6);
}

TEST(Search, CycleGraphDihedral) {
  // |Aut(C_n)| = 2n.
  EXPECT_NEAR(search_log10_order(cycle_graph(5)), std::log10(10.0), 1e-6);
  EXPECT_NEAR(search_log10_order(cycle_graph(8)), std::log10(16.0), 1e-6);
}

TEST(Search, StarGraphSymmetricOnLeaves) {
  // |Aut(K_{1,6})| = 6! = 720.
  EXPECT_NEAR(search_log10_order(star_graph(6)), std::log10(720.0), 1e-6);
}

TEST(Search, PetersenGraphOrder120) {
  EXPECT_NEAR(search_log10_order(petersen()), std::log10(120.0), 1e-6);
}

TEST(Search, GeneratorsAreAutomorphisms) {
  const Graph g = petersen();
  const AutomorphismResult r = find_automorphisms(g);
  EXPECT_FALSE(r.generators.empty());
  for (const Perm& p : r.generators) {
    EXPECT_TRUE(is_automorphism(g, p));
    EXPECT_FALSE(is_identity(p));
  }
}

TEST(Search, GeneratedGroupMatchesReportedOrder) {
  // The Schreier-Sims order of the generated group must equal the
  // grpsize-style accumulation from the search itself.
  for (const Graph& g : {cycle_graph(7), star_graph(5), petersen(),
                         complete_graph(5), path_graph(6)}) {
    EXPECT_NEAR(generated_log10_order(g), search_log10_order(g), 1e-6);
  }
}

TEST(Search, ColorsRestrictAutomorphisms) {
  // K4 with two color classes {0,1} and {2,3}: group drops to 2x2 = 4.
  const Graph g = complete_graph(4);
  const std::vector<int> colors{0, 0, 1, 1};
  EXPECT_NEAR(search_log10_order(g, colors), std::log10(4.0), 1e-6);
}

TEST(Search, AllSingletonColorsMeanRigid) {
  const Graph g = complete_graph(4);
  const std::vector<int> colors{0, 1, 2, 3};
  const AutomorphismResult r = find_automorphisms(g, colors);
  EXPECT_TRUE(r.generators.empty());
  EXPECT_DOUBLE_EQ(r.log10_order, 0.0);
}

TEST(Search, QueenGraphHasBoardSymmetries) {
  // The queen graph on a square board inherits >= the 8 board symmetries.
  const AutomorphismResult r = find_automorphisms(make_queen_graph(5, 5));
  EXPECT_GE(r.log10_order, std::log10(8.0) - 1e-9);
  for (const Perm& p : r.generators) {
    EXPECT_TRUE(is_automorphism(make_queen_graph(5, 5), p));
  }
}

TEST(Search, RectangularQueenBoardHasFourSymmetries) {
  // Non-square board: only identity, horizontal, vertical flips and
  // 180-degree rotation.
  const AutomorphismResult r = find_automorphisms(make_queen_graph(4, 6));
  EXPECT_NEAR(r.log10_order, std::log10(4.0), 1e-6);
}

TEST(Search, DisjointEdgesSwapAndExchange) {
  // Two disjoint edges: each edge flips (2*2) and the edges swap (2): 8.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  EXPECT_NEAR(search_log10_order(g), std::log10(8.0), 1e-6);
}

/// The formula graph of the suite instance `name` at K=20 with SC, the
/// graph the suite-sbp pipeline hands to the search.
FormulaGraph suite_formula_graph(const std::string& name) {
  for (const Instance& inst : dimacs_suite()) {
    if (inst.name == name) {
      return build_formula_graph(
          encode_coloring(inst.graph, 20, SbpOptions::sc_only()).formula);
    }
  }
  ADD_FAILURE() << "no suite instance " << name;
  return {};
}

TEST(Search, DeadlineProducesIncompleteFlag) {
  // The whole search takes well under 256 nodes, so the deadline must be
  // polled before the root refinement and at every node, not once per
  // 256 nodes.
  const FormulaGraph fg = suite_formula_graph("queen5_5");
  const SolveBudget budget(1e-9);
  const AutomorphismResult r =
      find_automorphisms(fg.graph, fg.vertex_colors, budget);
  EXPECT_FALSE(r.complete);
  for (const Perm& p : r.generators) {
    EXPECT_TRUE(is_automorphism(fg.graph, p, fg.vertex_colors));
  }
  EXPECT_TRUE(find_automorphisms(fg.graph, fg.vertex_colors).complete);
}

TEST(IsAutomorphism, ChecksEdgesAtMovedVerticesOnly) {
  // Swapping 0 and 2 on the path 0-1-2-3 breaks edge {2,3} only; the
  // check must still see it although vertex 3 is fixed.
  const Graph g = path_graph(4);
  EXPECT_FALSE(is_automorphism(g, Perm{2, 1, 0, 3}));
  EXPECT_TRUE(is_automorphism(g, Perm{3, 2, 1, 0}));
  EXPECT_FALSE(is_automorphism(g, Perm{1, 1, 2, 3}));  // not a bijection
  EXPECT_TRUE(is_automorphism(g, Perm{0, 1, 2, 3}));
}

// ---- Differential: find_automorphisms against the reference search ----

Graph disjoint_union(const std::vector<Graph>& parts) {
  int n = 0;
  for (const Graph& part : parts) n += part.num_vertices();
  Graph g(n);
  int offset = 0;
  for (const Graph& part : parts) {
    for (const Edge& e : part.edges()) g.add_edge(offset + e.u, offset + e.v);
    offset += part.num_vertices();
  }
  g.finalize();
  return g;
}

/// Same generators, element for element and in order, and the same group
/// order as the reference search; the optimized search may only visit
/// fewer nodes. Returns {nodes visited, nodes the reference visited}.
std::pair<std::int64_t, std::int64_t> expect_matches_reference(
    const Graph& g, std::span<const int> colors, const std::string& what) {
  const AutomorphismResult got = find_automorphisms(g, colors);
  const AutomorphismResult want = reference::find_automorphisms(g, colors);
  EXPECT_TRUE(got.complete) << what;
  EXPECT_EQ(got.generators, want.generators) << what;
  EXPECT_EQ(got.log10_order, want.log10_order) << what;
  EXPECT_LE(got.nodes, want.nodes) << what;
  return {got.nodes, want.nodes};
}

TEST(SearchDifferential, SuiteFormulaGraphs) {
  for (const char* name : {"myciel3", "myciel4", "queen5_5", "queen6_6",
                           "huck", "jean"}) {
    const FormulaGraph fg = suite_formula_graph(name);
    const auto [nodes, reference_nodes] =
        expect_matches_reference(fg.graph, fg.vertex_colors, name);
    // The color symmetry is found by sparse exits, far above the leaves.
    EXPECT_LT(nodes, reference_nodes) << name;
  }
}

TEST(SearchDifferential, RandomlyColoredRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const int n = 4 + static_cast<int>(rng.below(40));
    const int m = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(n * (n - 1) / 2 + 1)));
    const Graph g = make_random_gnm(n, m, seed * 7919);
    const int num_colors = 1 + static_cast<int>(rng.below(4));
    std::vector<int> colors(static_cast<std::size_t>(n));
    for (int& c : colors) {
      c = static_cast<int>(rng.below(static_cast<std::uint64_t>(num_colors)));
    }
    const std::string what = "seed=" + std::to_string(seed);
    expect_matches_reference(g, {}, what + " uncolored");
    expect_matches_reference(g, colors, what + " colored");
  }
}

TEST(SearchDifferential, QueensPetersenAndDisjointUnions) {
  for (const auto& [rows, cols] : {std::pair{4, 4}, {5, 5}, {6, 6}, {4, 6},
                                   {7, 7}, {3, 8}}) {
    expect_matches_reference(make_queen_graph(rows, cols), {},
                             "queen" + std::to_string(rows) + "_" +
                                 std::to_string(cols));
  }
  const std::vector<int> queen_colors = [] {
    std::vector<int> colors(25);
    for (int v = 0; v < 25; ++v) {
      colors[static_cast<std::size_t>(v)] = (v / 5 + v % 5) % 3;
    }
    return colors;
  }();
  expect_matches_reference(make_queen_graph(5, 5), queen_colors,
                           "queen5_5 colored");
  expect_matches_reference(petersen(), {}, "petersen");
  expect_matches_reference(disjoint_union({petersen(), petersen(), petersen()}),
                           {}, "3 x petersen");
  expect_matches_reference(
      disjoint_union({cycle_graph(5), cycle_graph(5), cycle_graph(5),
                      cycle_graph(5)}),
      {}, "4 x C5");
  expect_matches_reference(
      disjoint_union({petersen(), cycle_graph(10), complete_graph(4),
                      complete_graph(4), star_graph(3), path_graph(4)}),
      {}, "mixed union");
  const Graph triangles = disjoint_union({complete_graph(3), complete_graph(3),
                                     complete_graph(3), complete_graph(3)});
  std::vector<int> colors(12, 0);
  colors[0] = colors[3] = 1;  // two triangles carry a marked vertex
  expect_matches_reference(triangles, colors, "4 x K3, two marked");
}

TEST(Search, EmptyGraph) {
  Graph g(0);
  const AutomorphismResult r = find_automorphisms(g);
  EXPECT_TRUE(r.generators.empty());
  EXPECT_DOUBLE_EQ(r.log10_order, 0.0);
}

TEST(Search, SingleVertex) {
  Graph g(1);
  g.finalize();
  const AutomorphismResult r = find_automorphisms(g);
  EXPECT_TRUE(r.generators.empty());
  EXPECT_DOUBLE_EQ(r.log10_order, 0.0);
}

}  // namespace
}  // namespace symcolor
