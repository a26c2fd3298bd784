#pragma once
// Simple undirected graph used throughout the library.
//
// Vertices are dense integers 0..n-1; self-loops are rejected and
// duplicate edges are deduplicated on finalize(). This matches the needs
// of the coloring encoder (iterate edges), the automorphism engine
// (neighbour queries), and the heuristics (degree queries).
//
// Storage is CSR (compressed sparse row): finalize() builds two flat
// arrays, offsets_ (n+1 entries) and neighbors_ (2|E| entries), with
// vertex v's neighbours at neighbors_[offsets_[v] .. offsets_[v+1])
// sorted ascending. neighbors(v) returns a span directly into that
// buffer, so scans over adjacent vertices (partition refinement, DSATUR,
// clique search) walk one contiguous allocation instead of chasing
// per-vertex heap blocks. degree() is an offset subtraction and
// has_edge() a binary search within the row. Mutation goes through the
// edge list only: add_edge() invalidates the CSR view until the next
// finalize(), and accessors assert on a non-finalized graph.

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace symcolor {

/// An undirected edge as an ordered pair (u < v after finalize()).
struct Edge {
  int u = 0;
  int v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_vertices) { reset(num_vertices); }

  /// Discard all vertices and edges and allocate `num_vertices` vertices.
  void reset(int num_vertices);

  /// Add an undirected edge {u, v}. Self-loops are ignored. Duplicate
  /// edges may be added freely; finalize() removes them.
  void add_edge(int u, int v);

  /// Sort adjacency lists and deduplicate edges. Idempotent. Most
  /// accessors below require the graph to be finalized.
  ///
  /// The CSR build never sorts the edge list: a counting sort scatters
  /// both endpoints of every recorded edge into its row, each row is
  /// sorted and deduplicated on its own (O(|E| log max degree)), and the
  /// edge list is regenerated from the rows. The result is exactly that of
  /// a global sort + unique: edges() sorted by (u, v) with no duplicates,
  /// every row ascending, degree(v) the number of distinct neighbours.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] int num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] int num_edges() const noexcept {
    return static_cast<int>(edges_.size());
  }

  /// Neighbours of `v`, sorted ascending. Requires finalize().
  [[nodiscard]] std::span<const int> neighbors(int v) const;

  /// All edges with u < v, sorted lexicographically. Requires finalize().
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Degree of `v`. Requires finalize().
  [[nodiscard]] int degree(int v) const;

  /// True iff {u, v} is an edge (binary search). Requires finalize().
  [[nodiscard]] bool has_edge(int u, int v) const;

  /// Maximum degree over all vertices; 0 for an empty graph.
  [[nodiscard]] int max_degree() const;

  /// Edge density |E| / (n choose 2); 0 when n < 2.
  [[nodiscard]] double density() const;

  /// The graph obtained by renaming vertex v to perm[v]. `perm` must be a
  /// permutation of 0..n-1. Used heavily by symmetry tests.
  [[nodiscard]] Graph relabeled(std::span<const int> perm) const;

  /// The complement graph (edges flipped), useful for clique<->independent
  /// set duality tests.
  [[nodiscard]] Graph complement() const;

  /// True if `colors[v]` (size n) is a proper coloring: adjacent vertices
  /// always receive different values.
  [[nodiscard]] bool is_proper_coloring(std::span<const int> colors) const;

  /// Number of distinct values used in `colors`.
  static int count_colors(std::span<const int> colors);

 private:
  void check_vertex(int v) const;

  int num_vertices_ = 0;
  std::vector<int> offsets_;    // CSR row offsets, num_vertices_ + 1 entries
  std::vector<int> neighbors_;  // CSR column indices, sorted per row
  std::vector<Edge> edges_;
  bool finalized_ = true;  // an empty graph is trivially finalized
};

/// A named benchmark instance: the graph plus catalog metadata.
struct Instance {
  std::string name;
  Graph graph;
  /// Known chromatic number, or -1 when unknown / above the catalog bound.
  int chromatic_number = -1;
};

}  // namespace symcolor
