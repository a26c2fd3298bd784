#pragma once
// DSATUR, the coloring heuristic behind every upper bound (paper Section
// 4.1 step 1): the first incumbent of the SAT loop, the CSP colorer and
// DSATUR branch-and-bound.

#include <vector>

#include "graph/graph.h"

namespace symcolor {

/// Brelaz's DSATUR: repeatedly color the vertex with maximal saturation
/// degree (number of distinct neighbour colors), tie-broken by degree,
/// then by the lower index. Optimal on bipartite graphs. O(n^2 + |E|)
/// time: each pick is one pass over a precomputed key per vertex. Memory
/// is n * (max degree + 1) bytes of saturation flags.
std::vector<int> dsatur_coloring(const Graph& graph);

}  // namespace symcolor
