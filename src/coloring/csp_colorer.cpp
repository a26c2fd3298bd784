#include "coloring/csp_colorer.h"

#include <algorithm>
#include <stdexcept>

#include "coloring/heuristics.h"
#include "graph/clique.h"

namespace symcolor {
namespace {

class CspSearch {
 public:
  CspSearch(const Graph& graph, const CspColorerOptions& options,
            const SolveBudget& budget)
      : graph_(graph), options_(options), budget_(budget) {
    if (options.max_colors < 1) {
      throw std::invalid_argument("csp colorer needs max_colors >= 1");
    }
    colors_.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  }

  CspColorerResult run() {
    Timer timer;
    CspColorerResult result;
    result.completed = true;
    result.satisfiable = extend(0, 0);
    if (!completed_) result.completed = false;
    if (result.satisfiable) result.coloring = colors_;
    result.nodes = nodes_;
    result.seconds = timer.seconds();
    return result;
  }

 private:
  bool extend(int v, int used_colors) {
    if ((nodes_++ & 0x3FF) == 0 && budget_.poll() != BudgetTrip::None) {
      completed_ = false;
      return false;
    }
    if (v == graph_.num_vertices()) return true;
    // With dynamic value-symmetry breaking only one fresh color is
    // tried; all fresh colors are interchangeable under any partial
    // assignment, so this loses no solutions.
    const int limit = options_.break_value_symmetry
                          ? std::min(options_.max_colors, used_colors + 1)
                          : options_.max_colors;
    for (int c = 0; c < limit; ++c) {
      bool feasible = true;
      for (const int u : graph_.neighbors(v)) {
        if (colors_[static_cast<std::size_t>(u)] == c) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      colors_[static_cast<std::size_t>(v)] = c;
      const int next_used = std::max(used_colors, c + 1);
      if (extend(v + 1, next_used)) return true;
      colors_[static_cast<std::size_t>(v)] = -1;
      if (!completed_) return false;
    }
    return false;
  }

  const Graph& graph_;
  const CspColorerOptions& options_;
  const SolveBudget& budget_;
  std::vector<int> colors_;
  long long nodes_ = 0;
  bool completed_ = true;
};

}  // namespace

CspColorerResult csp_k_coloring(const Graph& graph,
                                const CspColorerOptions& options,
                                const SolveBudget& budget) {
  CspSearch search(graph, options, budget);
  return search.run();
}

CspColorerResult csp_min_coloring(const Graph& graph,
                                  bool break_value_symmetry,
                                  const SolveBudget& budget) {
  CspColorerResult best;
  best.completed = true;
  if (graph.num_vertices() == 0) {
    best.satisfiable = true;
    return best;
  }
  const std::vector<int> heuristic = dsatur_coloring(graph);
  int upper = Graph::count_colors(heuristic);
  const int lower =
      std::max<int>(1, static_cast<int>(greedy_clique(graph).size()));
  best.satisfiable = true;
  best.coloring = heuristic;

  Timer timer;
  while (upper > lower) {
    CspColorerOptions options;
    options.max_colors = upper - 1;
    options.break_value_symmetry = break_value_symmetry;
    const CspColorerResult probe = csp_k_coloring(graph, options, budget);
    best.nodes += probe.nodes;
    if (!probe.completed) {
      best.completed = false;
      break;
    }
    if (!probe.satisfiable) break;  // upper is optimal
    best.coloring = probe.coloring;
    upper = Graph::count_colors(best.coloring);
  }
  best.seconds = timer.seconds();
  return best;
}

}  // namespace symcolor
