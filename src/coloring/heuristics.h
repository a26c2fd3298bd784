#pragma once
// DSATUR, the coloring heuristic behind every upper bound (paper Section
// 4.1 step 1): the first incumbent of the SAT loop, the CSP colorer and
// DSATUR branch-and-bound.

#include <vector>

#include "graph/graph.h"

namespace symcolor {

/// Brelaz's DSATUR: repeatedly color the vertex with maximal saturation
/// degree (number of distinct neighbour colors), tie-broken by degree,
/// then by the lower index. Optimal on bipartite graphs. The uncolored
/// vertices sit in one bitset per saturation level, ordered by a rank
/// (degree descending, index ascending) fixed once by a counting sort, so
/// a pick is the lowest rank of the top non-empty level. Time O(n + |E|)
/// plus the picks' word scans; a level's scan resumes where its last one
/// stopped unless an insert landed below it. Memory: n bytes of
/// neighbour-color flags and n bits of level per color in use, so
/// O(n * k) for k colors, independent of the maximum degree.
std::vector<int> dsatur_coloring(const Graph& graph);

}  // namespace symcolor
