#pragma once
// DSATUR, the coloring heuristic behind every upper bound (paper Section
// 4.1 step 1): the first incumbent of the SAT loop, the CSP colorer and
// DSATUR branch-and-bound.

#include <vector>

#include "graph/graph.h"

namespace symcolor {

/// Brelaz's DSATUR: repeatedly color the vertex with maximal saturation
/// degree (number of distinct neighbour colors), tie-broken by degree.
/// Optimal on bipartite graphs.
std::vector<int> dsatur_coloring(const Graph& graph);

}  // namespace symcolor
