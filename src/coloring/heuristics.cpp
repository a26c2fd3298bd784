#include "coloring/heuristics.h"

namespace symcolor {

std::vector<int> dsatur_coloring(const Graph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> colors(static_cast<std::size_t>(n), -1);
  // Saturation tracked as a bitset of neighbour colors per vertex, stored
  // as one flat strided buffer so the update loops stay in-cache.
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  std::vector<char> neighbour_has(static_cast<std::size_t>(n) * stride, 0);
  const auto has = [&](int v, int color) -> char& {
    return neighbour_has[static_cast<std::size_t>(v) * stride +
                         static_cast<std::size_t>(color)];
  };
  std::vector<int> saturation(static_cast<std::size_t>(n), 0);

  for (int step = 0; step < n; ++step) {
    // Pick the uncolored vertex with max saturation, tie-break degree,
    // then index.
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (colors[static_cast<std::size_t>(v)] >= 0) continue;
      if (best < 0 ||
          saturation[static_cast<std::size_t>(v)] >
              saturation[static_cast<std::size_t>(best)] ||
          (saturation[static_cast<std::size_t>(v)] ==
               saturation[static_cast<std::size_t>(best)] &&
           graph.degree(v) > graph.degree(best))) {
        best = v;
      }
    }
    int color = 0;
    while (has(best, color)) ++color;
    colors[static_cast<std::size_t>(best)] = color;
    for (const int u : graph.neighbors(best)) {
      if (!has(u, color)) {
        has(u, color) = 1;
        ++saturation[static_cast<std::size_t>(u)];
      }
    }
  }
  return colors;
}

}  // namespace symcolor
