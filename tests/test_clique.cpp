// Tests for greedy and exact clique computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

#include "coloring/exact_colorer.h"
#include "coloring/heuristics.h"
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
  const auto clique = max_clique(complete(7), SolveBudget{}, &proved);
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
  const auto clique = max_clique(g, SolveBudget{}, &proved);
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

// ---- Equivalence with the adjacency-query formulation ----
//
// The clique routines mark neighbour rows instead of querying has_edge()
// per pair. The reference below is that query formulation, kept here
// verbatim so every result can be compared against it: same candidate
// order, same colour classes, same node counts, hence the same cliques,
// proved flags and node-cap stops.
namespace reference {

std::vector<int> greedy_clique(const Graph& graph) {
  const int n = graph.num_vertices();
  if (n == 0) return {};
  std::vector<int> by_degree(static_cast<std::size_t>(n));
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return graph.degree(a) != graph.degree(b) ? graph.degree(a) > graph.degree(b)
                                              : a < b;
  });
  std::vector<int> best;
  const int restarts = std::min(n, 16);
  for (int r = 0; r < restarts; ++r) {
    std::vector<int> clique{by_degree[static_cast<std::size_t>(r)]};
    for (int v : by_degree) {
      bool compatible = true;
      for (int u : clique) {
        if (u == v || !graph.has_edge(u, v)) {
          compatible = false;
          break;
        }
      }
      if (compatible) clique.push_back(v);
    }
    if (clique.size() > best.size()) best = std::move(clique);
  }
  std::sort(best.begin(), best.end());
  return best;
}

class CliqueSearch {
 public:
  CliqueSearch(const Graph& graph, std::int64_t node_cap, int upper_bound)
      : graph_(graph), node_cap_(node_cap), upper_bound_(upper_bound) {}

  std::vector<int> run(std::vector<int> seed, bool* proved_optimal) {
    best_ = std::move(seed);
    current_.clear();
    complete_ = true;
    done_ = reached_upper_bound();
    if (!done_) {
      std::vector<int> candidates(
          static_cast<std::size_t>(graph_.num_vertices()));
      std::iota(candidates.begin(), candidates.end(), 0);
      expand(candidates);
    }
    *proved_optimal = complete_;
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  [[nodiscard]] bool reached_upper_bound() const {
    return upper_bound_ > 0 &&
           best_.size() >= static_cast<std::size_t>(upper_bound_);
  }

  std::vector<int> color_bound(const std::vector<int>& candidates) const {
    std::vector<int> color(candidates.size(), 0);
    std::vector<std::vector<int>> classes;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const int v = candidates[i];
      std::size_t c = 0;
      for (; c < classes.size(); ++c) {
        bool conflict = false;
        for (int u : classes[c]) {
          if (graph_.has_edge(u, v)) {
            conflict = true;
            break;
          }
        }
        if (!conflict) break;
      }
      if (c == classes.size()) classes.emplace_back();
      classes[c].push_back(v);
      color[i] = static_cast<int>(c) + 1;
    }
    return color;
  }

  void expand(std::vector<int>& candidates) {
    if (node_cap_ > 0 && nodes_ >= node_cap_) {
      complete_ = false;
      done_ = true;
      return;
    }
    ++nodes_;
    std::vector<int> color = color_bound(candidates);
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return color[a] < color[b]; });
    std::vector<int> sorted(candidates.size());
    std::vector<int> sorted_color(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      sorted[i] = candidates[order[i]];
      sorted_color[i] = color[order[i]];
    }
    for (std::size_t i = sorted.size(); !done_ && i-- > 0;) {
      if (current_.size() + static_cast<std::size_t>(sorted_color[i]) <=
          best_.size()) {
        return;
      }
      const int v = sorted[i];
      current_.push_back(v);
      std::vector<int> next;
      for (std::size_t j = 0; j < i; ++j) {
        if (graph_.has_edge(sorted[j], v)) next.push_back(sorted[j]);
      }
      if (next.empty()) {
        if (current_.size() > best_.size()) {
          best_ = current_;
          done_ = reached_upper_bound();
        }
      } else {
        expand(next);
      }
      current_.pop_back();
    }
  }

  const Graph& graph_;
  const std::int64_t node_cap_;
  const int upper_bound_;
  std::int64_t nodes_ = 0;
  std::vector<int> best_;
  std::vector<int> current_;
  bool complete_ = true;
  bool done_ = false;
};

std::vector<int> max_clique(const Graph& graph, bool* proved_optimal,
                            std::int64_t node_cap, int upper_bound) {
  CliqueSearch search(graph, node_cap, upper_bound);
  return search.run(reference::greedy_clique(graph), proved_optimal);
}

}  // namespace reference

// One max_clique call against the reference, cliques and proved flags.
void expect_same_max_clique(const Graph& g, std::int64_t node_cap,
                            int upper_bound, const std::string& label) {
  bool proved = false;
  bool ref_proved = true;
  const auto clique = max_clique(g, SolveBudget{}, &proved, node_cap,
                                 upper_bound);
  const auto ref = reference::max_clique(g, &ref_proved, node_cap,
                                         upper_bound);
  EXPECT_EQ(clique, ref) << label << " cap " << node_cap << " bound "
                         << upper_bound;
  EXPECT_EQ(proved, ref_proved) << label << " cap " << node_cap << " bound "
                                << upper_bound;
}

// The greedy clique unbounded and bounded by the DSATUR count, max_clique
// at a 50-node cap, the SAT loop's call (its node cap, the DSATUR count as
// upper bound) and, for n <= 90, the uncapped search. The reference's
// max_clique starts from the unbounded greedy clique.
void expect_same_cliques(const Graph& g, const std::string& label) {
  const int dsatur_count = Graph::count_colors(dsatur_coloring(g));
  EXPECT_EQ(greedy_clique(g), reference::greedy_clique(g)) << label;
  EXPECT_EQ(greedy_clique(g, dsatur_count), reference::greedy_clique(g))
      << label << " bound " << dsatur_count;
  expect_same_max_clique(g, 50, 0, label);
  expect_same_max_clique(g, kSatLoopCliqueNodeCap, dsatur_count, label);
  if (g.num_vertices() <= 90) expect_same_max_clique(g, 0, 0, label);
}

TEST(CliqueEquivalence, SeededRandomGraphs) {
  std::uint64_t seed = 0xC11;
  for (const int n : {2, 7, 20, 45, 90, 140, 200}) {
    const int pairs = n * (n - 1) / 2;
    for (const int percent : {1, 4, 15, 40, 65, 85, 97}) {
      for (int rep = 0; rep < 2; ++rep) {
        const int m = pairs * percent / 100;
        const Graph g = make_random_gnm(n, m, ++seed);
        expect_same_cliques(g, "G(" + std::to_string(n) + ", " +
                                   std::to_string(m) + ") seed " +
                                   std::to_string(seed));
      }
    }
  }
}

TEST(CliqueEquivalence, DimacsSuite) {
  for (const Instance& inst : dimacs_suite()) {
    expect_same_cliques(inst.graph, inst.name);
  }
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
