#include "coloring/dsatur_bnb.h"

#include <algorithm>

#include "coloring/heuristics.h"
#include "graph/clique.h"

namespace symcolor {
namespace {

class BnB {
 public:
  BnB(const Graph& graph, const SolveBudget& budget)
      : graph_(graph),
        budget_(budget),
        n_(graph.num_vertices()),
        color_stride_(static_cast<std::size_t>(n_) + 2) {
    colors_.assign(static_cast<std::size_t>(n_), -1);
    // Per-vertex color counters live in one flat strided buffer so the
    // assign/unassign inner loops touch a single allocation.
    neighbour_has_.assign(static_cast<std::size_t>(n_) * color_stride_, 0);
    saturation_.assign(static_cast<std::size_t>(n_), 0);
  }

  DsaturBnbResult run() {
    Timer timer;
    DsaturBnbResult result;
    if (n_ == 0) {
      result.proved_optimal = true;
      return result;
    }
    // Incumbent from DSATUR; lower bound from a greedy clique, whose
    // vertices we pre-color (standard and sound: some optimal coloring
    // assigns the clique distinct colors, and clique vertices are fully
    // interchangeable with any recoloring).
    best_coloring_ = dsatur_coloring(graph_);
    best_ = Graph::count_colors(best_coloring_);
    const std::vector<int> clique = greedy_clique(graph_);
    lower_bound_ = std::max<int>(1, static_cast<int>(clique.size()));
    for (std::size_t i = 0; i < clique.size(); ++i) {
      assign(clique[i], static_cast<int>(i));
    }
    used_colors_ = static_cast<int>(clique.size());
    colored_count_ = static_cast<int>(clique.size());

    complete_ = true;
    search();

    result.num_colors = best_;
    result.coloring = best_coloring_;
    // Optimality holds whenever the search ran to completion.
    result.proved_optimal = complete_;
    result.nodes = nodes_;
    result.seconds = timer.seconds();
    return result;
  }

 private:

  [[nodiscard]] int& neighbour_has(int v, int color) {
    return neighbour_has_[static_cast<std::size_t>(v) * color_stride_ +
                          static_cast<std::size_t>(color)];
  }

  void assign(int v, int color) {
    colors_[static_cast<std::size_t>(v)] = color;
    for (const int u : graph_.neighbors(v)) {
      if (++neighbour_has(u, color) == 1) {
        ++saturation_[static_cast<std::size_t>(u)];
      }
    }
  }

  void unassign(int v, int color) {
    colors_[static_cast<std::size_t>(v)] = -1;
    for (const int u : graph_.neighbors(v)) {
      if (--neighbour_has(u, color) == 0) {
        --saturation_[static_cast<std::size_t>(u)];
      }
    }
  }

  [[nodiscard]] int select_vertex() const {
    int best = -1;
    for (int v = 0; v < n_; ++v) {
      if (colors_[static_cast<std::size_t>(v)] >= 0) continue;
      if (best < 0 ||
          saturation_[static_cast<std::size_t>(v)] >
              saturation_[static_cast<std::size_t>(best)] ||
          (saturation_[static_cast<std::size_t>(v)] ==
               saturation_[static_cast<std::size_t>(best)] &&
           graph_.degree(v) > graph_.degree(best))) {
        best = v;
      }
    }
    return best;
  }

  void search() {
    if ((nodes_++ & 0x3FF) == 0 && budget_.poll() != BudgetTrip::None) {
      complete_ = false;
      return;
    }
    if (used_colors_ >= best_) return;  // cannot improve
    if (colored_count_ == n_) {
      best_ = used_colors_;
      best_coloring_ = colors_;
      return;
    }
    const int v = select_vertex();
    // Try existing colors, then (if it stays under the incumbent) one new.
    const int limit = std::min(used_colors_ + 1, best_ - 1);
    for (int c = 0; c < limit; ++c) {
      if (neighbour_has(v, c) > 0) continue;
      const int prev_used = used_colors_;
      if (c == used_colors_) ++used_colors_;
      assign(v, c);
      ++colored_count_;
      search();
      --colored_count_;
      unassign(v, c);
      used_colors_ = prev_used;
      if (!complete_) return;
      if (best_ <= lower_bound_) return;  // proved optimal already
    }
  }

  const Graph& graph_;
  const SolveBudget& budget_;
  int n_;
  std::size_t color_stride_;
  std::vector<int> colors_;
  std::vector<int> neighbour_has_;  // flat n_ x color_stride_
  std::vector<int> saturation_;
  int used_colors_ = 0;
  int colored_count_ = 0;
  int best_ = 0;
  int lower_bound_ = 1;
  std::vector<int> best_coloring_;
  long long nodes_ = 0;
  bool complete_ = true;
};

}  // namespace

DsaturBnbResult dsatur_branch_and_bound(const Graph& graph,
                                        const SolveBudget& budget) {
  BnB bnb(graph, budget);
  return bnb.run();
}

}  // namespace symcolor
