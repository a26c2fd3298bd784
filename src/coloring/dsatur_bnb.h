#pragma once
// Exact DSATUR-based branch and bound — the problem-specific implicit-
// enumeration baseline (Brown 1972 / Brelaz 1979 family the paper reviews
// in Section 2.1 and compares against in Section 4.3).
//
// Branches on the most-saturated uncolored vertex, trying every color
// already in use plus one fresh color, pruning when the used-color count
// reaches the incumbent. A greedy clique provides the initial lower bound.

#include <vector>

#include "graph/graph.h"
#include "util/budget.h"

namespace symcolor {

struct DsaturBnbResult {
  int num_colors = 0;            ///< best coloring found
  std::vector<int> coloring;     ///< a witness with num_colors colors
  bool proved_optimal = false;   ///< search exhausted within the budget
  long long nodes = 0;
  double seconds = 0.0;
};

/// Compute the chromatic number exactly. `budget` is polled on entry and
/// every 1024 search nodes: a deadline or an interrupt() stops the search
/// with the best coloring so far and `proved_optimal` false (its counted
/// caps do not apply).
DsaturBnbResult dsatur_branch_and_bound(const Graph& graph,
                                        const SolveBudget& budget = {});

}  // namespace symcolor
