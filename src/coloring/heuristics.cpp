#include "coloring/heuristics.h"

#include <cstdint>

namespace symcolor {

std::vector<int> dsatur_coloring(const Graph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> colors(static_cast<std::size_t>(n), -1);
  // The color picked for v is the least one absent from its neighbours,
  // so at most deg(v) <= max degree: a row of max degree + 1 flags per
  // vertex holds every color a neighbour can take, in one flat strided
  // buffer so the update loops stay in-cache.
  const std::size_t stride = static_cast<std::size_t>(graph.max_degree()) + 1;
  std::vector<char> neighbour_has(static_cast<std::size_t>(n) * stride, 0);
  const auto has = [&](int v, int color) -> char& {
    return neighbour_has[static_cast<std::size_t>(v) * stride +
                         static_cast<std::size_t>(color)];
  };
  // key[v] = saturation(v) * stride + degree(v) while v is uncolored, -1
  // once colored. Degree and saturation are at most the max degree, so the
  // key orders by saturation, then degree, and stays below 2^62 for any n.
  const auto step_key = static_cast<std::int64_t>(stride);
  std::vector<std::int64_t> key(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    key[static_cast<std::size_t>(v)] = graph.degree(v);
  }

  for (int step = 0; step < n; ++step) {
    // Pick the uncolored vertex with max saturation, tie-break degree,
    // then the lower index (the first maximum).
    int best = 0;
    std::int64_t best_key = -1;
    for (int v = 0; v < n; ++v) {
      if (key[static_cast<std::size_t>(v)] > best_key) {
        best = v;
        best_key = key[static_cast<std::size_t>(v)];
      }
    }
    int color = 0;
    while (has(best, color)) ++color;
    colors[static_cast<std::size_t>(best)] = color;
    key[static_cast<std::size_t>(best)] = -1;
    for (const int u : graph.neighbors(best)) {
      if (key[static_cast<std::size_t>(u)] >= 0 && !has(u, color)) {
        has(u, color) = 1;
        key[static_cast<std::size_t>(u)] += step_key;
      }
    }
  }
  return colors;
}

}  // namespace symcolor
