#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace symcolor {
namespace {

/// The distinct undirected edges drawn so far, in draw order, deduplicated
/// through an n x n seen-bitmap (n^2 bits: 5.6 KB at the suite's largest
/// n = 211). Graph::finalize() sorts them, so draw order never shows in
/// the built graph.
class EdgeSet {
 public:
  explicit EdgeSet(int n)
      : n_(checked_size(n)), seen_(n_ * n_, false) {}

  /// Record {u, v} (u != v); false if it was already there.
  bool insert(int u, int v) {
    if (u > v) std::swap(u, v);
    const std::size_t bit = static_cast<std::size_t>(u) * n_ +
                            static_cast<std::size_t>(v);
    if (seen_[bit]) return false;
    seen_[bit] = true;
    edges_.push_back({u, v});
    return true;
  }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(edges_.size());
  }

  [[nodiscard]] Graph build() const {
    Graph g(static_cast<int>(n_));
    for (const Edge& e : edges_) g.add_edge(e.u, e.v);
    g.finalize();
    return g;
  }

 private:
  static std::size_t checked_size(int n) {
    if (n < 0) throw std::invalid_argument("negative vertex count");
    return static_cast<std::size_t>(n);
  }

  std::size_t n_;
  std::vector<bool> seen_;
  std::vector<Edge> edges_;
};

/// Shared skeleton of the synthetic DIMACS families: vertices are split
/// into `k` groups (round-robin: vertex v belongs to group v % k), vertices
/// 0..k-1 form a planted k-clique (one per group), and all further edges
/// connect *different* groups only. The graph is therefore k-partite with
/// a k-clique: its chromatic number is exactly k, matching the real
/// instances whose chromatic number equals their max clique.
class PartiteBuilder {
 public:
  PartiteBuilder(int n, int k, std::uint64_t seed)
      : n_(n), k_(k), rng_(seed), edges_(n) {
    if (k < 2 || n < k) throw std::invalid_argument("bad planted clique size");
    for (int u = 0; u < k; ++u) {
      for (int v = u + 1; v < k; ++v) insert(u, v);
    }
  }

  [[nodiscard]] int group(int v) const noexcept { return v % k_; }
  [[nodiscard]] int edge_count() const noexcept { return edges_.size(); }
  [[nodiscard]] int degree(int v) const { return degree_[static_cast<std::size_t>(v)]; }
  Rng& rng() noexcept { return rng_; }

  /// Try to add {u, v}; rejected (returns false) for same-group pairs,
  /// loops, and duplicates.
  bool insert(int u, int v) {
    if (u == v || group(u) == group(v)) return false;
    if (!edges_.insert(u, v)) return false;
    ++degree_[static_cast<std::size_t>(u)];
    ++degree_[static_cast<std::size_t>(v)];
    return true;
  }

  /// Keep proposing edges from `propose` until `m` edges exist. Gives up
  /// (throws) if the proposal stream stalls, which indicates an infeasible
  /// target for the family parameters.
  template <typename Proposer>
  void fill_to(int m, Proposer&& propose) {
    long long stall = 0;
    const long long stall_limit = 200LL * (m + n_ + 16);
    while (edge_count() < m) {
      auto [u, v] = propose();
      if (!insert(u, v)) {
        if (++stall > stall_limit) {
          throw std::runtime_error("generator stalled: edge target infeasible");
        }
      } else {
        stall = 0;
      }
    }
  }

  [[nodiscard]] Graph build() const { return edges_.build(); }

 private:
  int n_;
  int k_;
  Rng rng_;
  EdgeSet edges_;
  std::vector<int> degree_ = std::vector<int>(static_cast<std::size_t>(n_), 0);
};

}  // namespace

Graph make_queen_graph(int rows, int cols) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("empty board");
  const int n = rows * cols;
  Graph g(n);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r1 = 0; r1 < rows; ++r1) {
    for (int c1 = 0; c1 < cols; ++c1) {
      for (int r2 = r1; r2 < rows; ++r2) {
        const int c_start = (r2 == r1) ? c1 + 1 : 0;
        for (int c2 = c_start; c2 < cols; ++c2) {
          const bool same_row = r1 == r2;
          const bool same_col = c1 == c2;
          const bool same_diag = std::abs(r1 - r2) == std::abs(c1 - c2);
          if (same_row || same_col || same_diag) {
            g.add_edge(id(r1, c1), id(r2, c2));
          }
        }
      }
    }
  }
  g.finalize();
  return g;
}

Graph make_mycielski(int k) {
  if (k < 2) throw std::invalid_argument("Mycielski index must be >= 2");
  // M_2 = K2.
  Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  for (int step = 2; step < k; ++step) {
    // Mycielskian of g: vertices v_0..v_{n-1}, shadows u_0..u_{n-1}, apex w.
    const int n = g.num_vertices();
    Graph next(2 * n + 1);
    const int apex = 2 * n;
    for (const Edge& e : g.edges()) {
      next.add_edge(e.u, e.v);          // original edge
      next.add_edge(n + e.u, e.v);      // shadow of u sees neighbours of u
      next.add_edge(n + e.v, e.u);
    }
    for (int v = 0; v < n; ++v) next.add_edge(n + v, apex);
    next.finalize();
    g = std::move(next);
  }
  return g;
}

Graph make_myciel_dimacs(int n) {
  // DIMACS mycielN has chromatic number N + 1 = Mycielski index N + 1.
  return make_mycielski(n + 1);
}

Graph make_random_gnm(int n, int m, std::uint64_t seed) {
  const long long max_edges = static_cast<long long>(n) * (n - 1) / 2;
  if (m < 0 || m > max_edges) throw std::invalid_argument("bad edge count");
  Rng rng(seed);
  EdgeSet chosen(n);
  while (chosen.size() < m) {
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (u != v) chosen.insert(u, v);
  }
  return chosen.build();
}

Graph make_book_graph(int n, int m, int clique, std::uint64_t seed) {
  PartiteBuilder b(n, clique, seed);
  if (m < b.edge_count()) throw std::invalid_argument("m below planted clique");
  // Preferential attachment: characters that already interact a lot keep
  // acquiring interactions; one endpoint degree-weighted, one uniform.
  std::vector<int> endpoints;
  for (int u = 0; u < clique; ++u) {
    for (int v = u + 1; v < clique; ++v) {
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  b.fill_to(m, [&]() {
    const int u = endpoints[b.rng().below(endpoints.size())];
    const int v = static_cast<int>(b.rng().below(static_cast<std::uint64_t>(n)));
    if (u != v && b.group(u) != b.group(v)) {
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
    return std::pair{u, v};
  });
  return b.build();
}

Graph make_games_graph(int n, int m, int clique, std::uint64_t seed) {
  PartiteBuilder b(n, clique, seed);
  if (m < b.edge_count()) throw std::invalid_argument("m below planted clique");
  // Near-regular: bias the first endpoint toward minimum current degree,
  // like a round-robin schedule filling every team's fixture list evenly.
  b.fill_to(m, [&]() {
    int u = static_cast<int>(b.rng().below(static_cast<std::uint64_t>(n)));
    for (int probe = 0; probe < 3; ++probe) {
      const int c = static_cast<int>(b.rng().below(static_cast<std::uint64_t>(n)));
      if (b.degree(c) < b.degree(u)) u = c;
    }
    const int v = static_cast<int>(b.rng().below(static_cast<std::uint64_t>(n)));
    return std::pair{u, v};
  });
  return b.build();
}

Graph make_geometric_graph(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = rng.uniform();
    y[static_cast<std::size_t>(i)] = rng.uniform();
  }
  auto count_edges = [&](double radius) {
    const double r2 = radius * radius;
    int count = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const double dx = x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(j)];
        const double dy = y[static_cast<std::size_t>(i)] - y[static_cast<std::size_t>(j)];
        if (dx * dx + dy * dy <= r2) ++count;
      }
    }
    return count;
  };
  // Bisect the connection radius until the edge count brackets m tightly.
  double lo = 0.0, hi = 1.5;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (count_edges(mid) < m) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double radius = hi;
  const double r2 = radius * radius;
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double dx = x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(j)];
      const double dy = y[static_cast<std::size_t>(i)] - y[static_cast<std::size_t>(j)];
      if (dx * dx + dy * dy <= r2) g.add_edge(i, j);
    }
  }
  g.finalize();
  return g;
}

Graph make_register_graph(int n, int m, int pressure, std::uint64_t seed) {
  PartiteBuilder b(n, pressure, seed);
  if (m < b.edge_count()) throw std::invalid_argument("m below pressure clique");
  // Fringe live ranges overlap a *contiguous window* of the long-lived
  // clique ranges, modelling short temporaries inside the hot region;
  // a fraction of edges joins two overlapping fringe ranges directly so
  // that dense targets beyond the fringe-to-clique capacity stay feasible.
  b.fill_to(m, [&]() {
    const int v = pressure + static_cast<int>(b.rng().below(
                                 static_cast<std::uint64_t>(n - pressure)));
    if (b.rng().chance(0.25) && n - pressure >= 2) {
      const int w = pressure + static_cast<int>(b.rng().below(
                                   static_cast<std::uint64_t>(n - pressure)));
      return std::pair{v, w};
    }
    const int window = 2 + static_cast<int>(b.rng().below(
                               static_cast<std::uint64_t>(pressure - 1)));
    const int start = static_cast<int>(
        b.rng().below(static_cast<std::uint64_t>(pressure)));
    const int offset = static_cast<int>(b.rng().below(
        static_cast<std::uint64_t>(window)));
    const int u = (start + offset) % pressure;
    return std::pair{v, u};
  });
  return b.build();
}

std::vector<Instance> dimacs_suite() {
  // Edge counts follow the undirected edge counts of the real DIMACS files
  // (the paper's Table 1 lists doubled counts for the DSJC instances; we
  // use the defining G(125, p) densities). Chromatic numbers are the
  // generator-pinned values where the construction guarantees them.
  std::vector<Instance> suite;
  suite.push_back({"anna", make_book_graph(138, 986, 11, 0xA11A), 11});
  suite.push_back({"david", make_book_graph(87, 812, 11, 0xDA71D), 11});
  suite.push_back({"DSJC125.1", make_random_gnm(125, 736, 0xD51), -1});
  suite.push_back({"DSJC125.9", make_random_gnm(125, 6961, 0xD59), -1});
  suite.push_back({"games120", make_games_graph(120, 1276, 9, 0x6A3E5), 9});
  suite.push_back({"huck", make_book_graph(74, 602, 11, 0x4C8), 11});
  suite.push_back({"jean", make_book_graph(80, 508, 10, 0x1EA4), 10});
  suite.push_back({"miles250", make_geometric_graph(128, 774, 0x313E5), -1});
  suite.push_back({"mulsol.i.2", make_register_graph(188, 3885, 31, 0x3012), 31});
  suite.push_back({"mulsol.i.4", make_register_graph(185, 3946, 31, 0x3014), 31});
  suite.push_back({"myciel3", make_myciel_dimacs(3), 4});
  suite.push_back({"myciel4", make_myciel_dimacs(4), 5});
  suite.push_back({"myciel5", make_myciel_dimacs(5), 6});
  suite.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  suite.push_back({"queen6_6", make_queen_graph(6, 6), 7});
  suite.push_back({"queen7_7", make_queen_graph(7, 7), 7});
  suite.push_back({"queen8_12", make_queen_graph(8, 12), 12});
  suite.push_back({"zeroin.i.1", make_register_graph(211, 4100, 49, 0x2E01), 49});
  suite.push_back({"zeroin.i.2", make_register_graph(211, 3541, 30, 0x2E02), 30});
  suite.push_back({"zeroin.i.3", make_register_graph(206, 3540, 30, 0x2E03), 30});
  return suite;
}

std::vector<Instance> queens_suite() {
  std::vector<Instance> suite;
  suite.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  suite.push_back({"queen6_6", make_queen_graph(6, 6), 7});
  suite.push_back({"queen7_7", make_queen_graph(7, 7), 7});
  suite.push_back({"queen8_12", make_queen_graph(8, 12), 12});
  return suite;
}

}  // namespace symcolor
