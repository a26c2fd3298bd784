#include "graph/clique.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace symcolor {
namespace {

/// Branch-and-bound state for max_clique.
class CliqueSearch {
 public:
  CliqueSearch(const Graph& graph, const SolveBudget& budget,
               std::int64_t node_cap, int upper_bound)
      : graph_(graph),
        budget_(budget),
        node_cap_(node_cap),
        upper_bound_(upper_bound),
        mark_(static_cast<std::size_t>(graph.num_vertices()), 0) {}

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
    if (proved_optimal != nullptr) *proved_optimal = complete_;
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  // A clique as large as the caller's upper bound on omega is maximum.
  [[nodiscard]] bool reached_upper_bound() const {
    return upper_bound_ > 0 &&
           best_.size() >= static_cast<std::size_t>(upper_bound_);
  }

  // Stamps N(v) with a fresh value, so adjacent(u) is true until the next
  // call iff u is a neighbour of v: one pass over v's row instead of a
  // binary search per queried pair.
  void mark_neighbors(int v) {
    if (++stamp_ == 0) {  // wrapped: old stamps could read as current
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
    for (const int u : graph_.neighbors(v)) {
      mark_[static_cast<std::size_t>(u)] = stamp_;
    }
  }
  [[nodiscard]] bool adjacent(int u) const {
    return mark_[static_cast<std::size_t>(u)] == stamp_;
  }

  // Greedy coloring of the candidate set; returns per-candidate color
  // numbers (1-based). max color bounds the clique extension size.
  std::vector<int> color_bound(const std::vector<int>& candidates) {
    std::vector<int> color(candidates.size(), 0);
    std::vector<std::vector<int>> classes;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const int v = candidates[i];
      mark_neighbors(v);
      std::size_t c = 0;
      for (; c < classes.size(); ++c) {
        if (std::none_of(classes[c].begin(), classes[c].end(),
                         [&](int u) { return adjacent(u); })) {
          break;
        }
      }
      if (c == classes.size()) classes.emplace_back();
      classes[c].push_back(v);
      color[i] = static_cast<int>(c) + 1;
    }
    return color;
  }

  void expand(std::vector<int>& candidates) {
    if ((node_cap_ > 0 && nodes_ >= node_cap_) ||
        budget_.poll() != BudgetTrip::None) {
      complete_ = false;
      done_ = true;
      return;
    }
    ++nodes_;
    // Order candidates so higher colors (harder vertices) are tried first,
    // and prune with |current| + color(v) <= |best|.
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
        return;  // bound: no extension can beat the incumbent
      }
      const int v = sorted[i];
      current_.push_back(v);
      // The stamp is read before the recursion below re-stamps.
      mark_neighbors(v);
      std::vector<int> next;
      for (std::size_t j = 0; j < i; ++j) {
        if (adjacent(sorted[j])) next.push_back(sorted[j]);
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
  const SolveBudget& budget_;
  const std::int64_t node_cap_;
  const int upper_bound_;
  std::int64_t nodes_ = 0;
  std::vector<int> best_;
  std::vector<int> current_;
  // mark_[u] == stamp_ iff u is adjacent to the vertex last stamped.
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  bool complete_ = true;
  // Set when the search must unwind: a limit tripped (complete_ false) or
  // the incumbent reached the caller's upper bound (complete_ stays true).
  bool done_ = false;
};

}  // namespace

std::vector<int> greedy_clique(const Graph& graph, int upper_bound) {
  const int n = graph.num_vertices();
  if (n == 0) return {};
  std::vector<int> by_degree(static_cast<std::size_t>(n));
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return graph.degree(a) != graph.degree(b) ? graph.degree(a) > graph.degree(b)
                                              : a < b;
  });

  // adjacent_members[v] counts the clique members adjacent to v, so v
  // extends the clique iff that count is the clique's size (a member is
  // never adjacent to itself, so it never qualifies twice).
  std::vector<int> adjacent_members(static_cast<std::size_t>(n));
  std::vector<int> best;
  const int restarts = std::min(n, 16);
  const auto bound_met = [&] {
    return upper_bound > 0 &&
           best.size() >= static_cast<std::size_t>(upper_bound);
  };
  for (int r = 0; r < restarts && !bound_met(); ++r) {
    std::fill(adjacent_members.begin(), adjacent_members.end(), 0);
    std::vector<int> clique;
    const auto join = [&](int v) {
      clique.push_back(v);
      for (const int u : graph.neighbors(v)) {
        ++adjacent_members[static_cast<std::size_t>(u)];
      }
    };
    join(by_degree[static_cast<std::size_t>(r)]);
    for (const int v : by_degree) {
      if (adjacent_members[static_cast<std::size_t>(v)] ==
          static_cast<int>(clique.size())) {
        join(v);
      }
    }
    if (clique.size() > best.size()) best = std::move(clique);
  }
  std::sort(best.begin(), best.end());
  return best;
}

std::vector<int> max_clique(const Graph& graph, const SolveBudget& budget,
                            bool* proved_optimal, std::int64_t node_cap,
                            int upper_bound) {
  CliqueSearch search(graph, budget, node_cap, upper_bound);
  return search.run(greedy_clique(graph, upper_bound), proved_optimal);
}

namespace {

/// Bron-Kerbosch with pivoting on sorted vectors.
class CliqueEnumerator {
 public:
  CliqueEnumerator(const Graph& graph, std::size_t max_count)
      : graph_(graph), max_count_(max_count) {}

  std::vector<std::vector<int>> run(bool* truncated) {
    std::vector<int> candidates(static_cast<std::size_t>(graph_.num_vertices()));
    std::iota(candidates.begin(), candidates.end(), 0);
    std::vector<int> current;
    std::vector<int> excluded;
    expand(current, std::move(candidates), std::move(excluded));
    if (truncated != nullptr) *truncated = truncated_;
    return std::move(results_);
  }

 private:
  [[nodiscard]] bool full() const {
    return max_count_ != 0 && results_.size() >= max_count_;
  }

  std::vector<int> intersect_neighbors(const std::vector<int>& set, int v) {
    std::vector<int> out;
    for (const int u : set) {
      if (graph_.has_edge(u, v)) out.push_back(u);
    }
    return out;
  }

  void expand(std::vector<int>& current, std::vector<int> candidates,
              std::vector<int> excluded) {
    if (full()) {
      truncated_ = true;
      return;
    }
    if (candidates.empty() && excluded.empty()) {
      results_.push_back(current);
      std::sort(results_.back().begin(), results_.back().end());
      return;
    }
    // Pivot: the vertex (from candidates or excluded) with the most
    // neighbours among the candidates minimizes branching.
    int pivot = -1;
    int pivot_degree = -1;
    for (const std::vector<int>* pool : {&candidates, &excluded}) {
      for (const int u : *pool) {
        int degree = 0;
        for (const int w : candidates) {
          if (graph_.has_edge(u, w)) ++degree;
        }
        if (degree > pivot_degree) {
          pivot_degree = degree;
          pivot = u;
        }
      }
    }
    std::vector<int> branch_vertices;
    for (const int v : candidates) {
      if (pivot < 0 || !graph_.has_edge(pivot, v)) branch_vertices.push_back(v);
    }
    for (const int v : branch_vertices) {
      if (full()) {
        truncated_ = true;
        return;
      }
      current.push_back(v);
      expand(current, intersect_neighbors(candidates, v),
             intersect_neighbors(excluded, v));
      current.pop_back();
      candidates.erase(std::find(candidates.begin(), candidates.end(), v));
      excluded.push_back(v);
    }
  }

  const Graph& graph_;
  std::size_t max_count_;
  std::vector<std::vector<int>> results_;
  bool truncated_ = false;
};

}  // namespace

std::vector<std::vector<int>> maximal_cliques(const Graph& graph,
                                              std::size_t max_count,
                                              bool* truncated) {
  CliqueEnumerator enumerator(graph, max_count);
  return enumerator.run(truncated);
}

std::vector<std::vector<int>> maximal_independent_sets(const Graph& graph,
                                                       std::size_t max_count,
                                                       bool* truncated) {
  return maximal_cliques(graph.complement(), max_count, truncated);
}

bool is_clique(const Graph& graph, const std::vector<int>& vertices) {
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (!graph.has_edge(vertices[i], vertices[j])) return false;
    }
  }
  return true;
}

}  // namespace symcolor
