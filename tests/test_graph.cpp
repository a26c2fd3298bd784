// Unit tests for the graph structure and DIMACS .col I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/dimacs_col.h"
#include "graph/graph.h"
#include "util/rng.h"

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

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_EQ(g.density(), 0.0);
}

TEST(Graph, AddAndQueryEdges) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, DuplicateEdgesCollapse) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, SelfLoopsIgnored) {
  Graph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, OutOfRangeEdgeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
}

TEST(Graph, NeighborsSorted) {
  Graph g(4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(2, 1);
  g.finalize();
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0);
  EXPECT_EQ(nb[1], 1);
  EXPECT_EQ(nb[2], 3);
}

TEST(Graph, DegreeAndMaxDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.finalize();
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(Graph, DensityOfCompleteGraph) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
}

TEST(Graph, FinalizeIdempotent) {
  Graph g = triangle();
  g.finalize();
  g.finalize();
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(Graph, RelabeledPreservesStructure) {
  const Graph g = triangle();
  const std::vector<int> perm{2, 0, 1};
  const Graph h = g.relabeled(perm);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_TRUE(h.has_edge(2, 0));
}

TEST(Graph, RelabeledRejectsBadPermSize) {
  const Graph g = triangle();
  EXPECT_THROW((void)g.relabeled(std::vector<int>{0, 1}),
               std::invalid_argument);
}

TEST(Graph, ComplementOfTriangleIsEmpty) {
  const Graph g = triangle();
  EXPECT_EQ(g.complement().num_edges(), 0);
}

TEST(Graph, ComplementOfPath) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const Graph c = g.complement();
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_TRUE(c.has_edge(0, 2));
}

TEST(Graph, ComplementInvolution) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(1, 4);
  g.finalize();
  const Graph cc = g.complement().complement();
  EXPECT_EQ(cc.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(cc.has_edge(e.u, e.v));
}

TEST(Graph, ProperColoringAccepted) {
  const Graph g = triangle();
  EXPECT_TRUE(g.is_proper_coloring(std::vector<int>{0, 1, 2}));
}

TEST(Graph, ImproperColoringRejected) {
  const Graph g = triangle();
  EXPECT_FALSE(g.is_proper_coloring(std::vector<int>{0, 0, 1}));
}

TEST(Graph, WrongSizeColoringRejected) {
  const Graph g = triangle();
  EXPECT_FALSE(g.is_proper_coloring(std::vector<int>{0, 1}));
}

TEST(Graph, CountColors) {
  EXPECT_EQ(Graph::count_colors(std::vector<int>{0, 2, 0, 5}), 3);
  EXPECT_EQ(Graph::count_colors(std::vector<int>{}), 0);
}

TEST(Graph, ResetClearsEverything) {
  Graph g = triangle();
  g.reset(2);
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(DimacsCol, ParsesWellFormedInput) {
  const Graph g = read_dimacs_col_string(
      "c a comment\n"
      "p edge 3 3\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 1 3\n");
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(DimacsCol, ToleratesDuplicateAndReversedEdges) {
  const Graph g = read_dimacs_col_string(
      "p edge 2 3\n"
      "e 1 2\n"
      "e 2 1\n"
      "e 1 2\n");
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(DimacsCol, BlankLinesAndCommentsIgnored) {
  const Graph g = read_dimacs_col_string(
      "\nc x\n\np edge 2 1\n\ne 1 2\n\n");
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(DimacsCol, RejectsMissingHeader) {
  EXPECT_THROW(read_dimacs_col_string("e 1 2\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_col_string(""), std::runtime_error);
}

TEST(DimacsCol, RejectsDuplicateHeader) {
  EXPECT_THROW(read_dimacs_col_string("p edge 2 0\np edge 2 0\n"),
               std::runtime_error);
}

TEST(DimacsCol, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(read_dimacs_col_string("p edge 2 1\ne 1 3\n"),
               std::runtime_error);
  EXPECT_THROW(read_dimacs_col_string("p edge 2 1\ne 0 1\n"),
               std::runtime_error);
}

TEST(DimacsCol, RejectsMalformedDirective) {
  EXPECT_THROW(read_dimacs_col_string("p edge 2 1\nq 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(read_dimacs_col_string("p edge 2 1\ne 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_dimacs_col_string("p edge two 1\n"), std::runtime_error);
}

TEST(DimacsCol, RoundTrip) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  g.finalize();
  const Graph h = read_dimacs_col_string(write_dimacs_col_string(g, "rt"));
  EXPECT_EQ(h.num_vertices(), 4);
  EXPECT_EQ(h.num_edges(), 3);
  for (const Edge& e : g.edges()) EXPECT_TRUE(h.has_edge(e.u, e.v));
}

TEST(DimacsCol, WriterEmitsHeaderAndComment) {
  Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  const std::string text = write_dimacs_col_string(g, "hello");
  EXPECT_NE(text.find("c hello"), std::string::npos);
  EXPECT_NE(text.find("p edge 2 1"), std::string::npos);
  EXPECT_NE(text.find("e 1 2"), std::string::npos);
}

// ---- CSR layout vs reference adjacency ----

/// A trivially-correct adjacency structure built straight from an edge
/// list, used to cross-check the CSR accessors.
struct ReferenceAdjacency {
  explicit ReferenceAdjacency(int n) : adj(static_cast<std::size_t>(n)) {}
  void add(int u, int v) {
    if (u == v) return;
    adj[static_cast<std::size_t>(u)].insert(v);
    adj[static_cast<std::size_t>(v)].insert(u);
  }
  std::vector<std::set<int>> adj;
};

class CsrEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrEquivalenceTest, MatchesReferenceOnRandomGraph) {
  // Random multigraphs: duplicates in both orientations and self-loops;
  // the second round adds edges to a finalized graph and finalizes again.
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.below(40));
  const int max_edges = n * (n - 1) / 2;
  Graph g(n);
  ReferenceAdjacency ref(n);
  for (int round = 0; round < 2; ++round) {
    const int m = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(2 * max_edges) + 1));  // includes duplicates
    for (int i = 0; i < m; ++i) {
      const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      g.add_edge(u, v);
      ref.add(u, v);
    }
    g.finalize();

    // edges(): every pair once, u < v, sorted by (u, v).
    std::vector<Edge> expected_edges;
    for (int u = 0; u < n; ++u) {
      for (const int v : ref.adj[static_cast<std::size_t>(u)]) {
        if (u < v) expected_edges.push_back({u, v});
      }
    }
    const std::span<const Edge> edges = g.edges();
    EXPECT_EQ(std::vector<Edge>(edges.begin(), edges.end()), expected_edges);

    int max_degree = 0;
    for (int v = 0; v < n; ++v) {
      const std::set<int>& expected = ref.adj[static_cast<std::size_t>(v)];
      EXPECT_EQ(g.degree(v), static_cast<int>(expected.size())) << "v=" << v;
      max_degree = std::max(max_degree, static_cast<int>(expected.size()));
      // neighbors() must be exactly the reference set, sorted ascending.
      const std::span<const int> got = g.neighbors(v);
      ASSERT_EQ(got.size(), expected.size()) << "v=" << v;
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "v=" << v;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
          << "v=" << v;
      for (int u = 0; u < n; ++u) {
        EXPECT_EQ(g.has_edge(v, u), expected.count(u) == 1)
            << "v=" << v << " u=" << u;
      }
    }
    EXPECT_EQ(g.max_degree(), max_degree);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsrEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(Graph, CsrRebuildAfterMutation) {
  // add_edge() after finalize() must invalidate and then rebuild the CSR
  // arrays consistently.
  Graph g(5);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.degree(0), 1);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  EXPECT_FALSE(g.finalized());
  g.finalize();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(3, 4));
  const std::span<const int> adj0 = g.neighbors(0);
  EXPECT_EQ(std::vector<int>(adj0.begin(), adj0.end()),
            (std::vector<int>{1, 2}));
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  const Graph g = triangle();
  EXPECT_THROW((void)g.neighbors(-1), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(3), std::out_of_range);
  EXPECT_THROW((void)g.degree(3), std::out_of_range);
  EXPECT_THROW((void)g.has_edge(0, 7), std::out_of_range);
}

}  // namespace
}  // namespace symcolor
