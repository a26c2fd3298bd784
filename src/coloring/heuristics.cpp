#include "coloring/heuristics.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace symcolor {
namespace {

/// The uncolored vertices of one saturation level, as a bitset over their
/// degree rank: the lowest rank in it is the level's DSATUR pick.
class RankSet {
 public:
  explicit RankSet(std::size_t words) : bits_(words, 0) {}

  [[nodiscard]] bool empty() const { return count_ == 0; }

  void insert(int rank) {
    const std::size_t w = word(rank);
    bits_[w] |= bit(rank);
    first_ = std::min(first_, w);
    ++count_;
  }

  void erase(int rank) {
    bits_[word(rank)] &= ~bit(rank);
    --count_;
  }

  /// The lowest rank in the set, which must not be empty. The scan starts
  /// at the lowest word an insert touched since the last scan passed it.
  [[nodiscard]] int lowest() {
    while (bits_[first_] == 0) ++first_;
    return static_cast<int>(first_ * 64) + std::countr_zero(bits_[first_]);
  }

 private:
  static std::size_t word(int rank) {
    return static_cast<std::size_t>(rank) / 64;
  }
  static std::uint64_t bit(int rank) {
    return std::uint64_t{1} << (static_cast<unsigned>(rank) % 64);
  }

  std::vector<std::uint64_t> bits_;
  std::size_t first_ = 0;  // no rank in the set lies below word first_
  int count_ = 0;
};

}  // namespace

std::vector<int> dsatur_coloring(const Graph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> colors(static_cast<std::size_t>(n), -1);
  if (n == 0) return colors;

  // rank[v] orders the vertices by degree descending, then index ascending
  // (a counting sort over the degrees), so within one saturation level the
  // lowest rank is the pick with the highest degree, then the lowest index.
  const int max_degree = graph.max_degree();
  std::vector<int> next_rank(static_cast<std::size_t>(max_degree) + 2, 0);
  for (int v = 0; v < n; ++v) {
    ++next_rank[static_cast<std::size_t>(max_degree - graph.degree(v)) + 1];
  }
  for (std::size_t d = 1; d < next_rank.size(); ++d) {
    next_rank[d] += next_rank[d - 1];
  }
  std::vector<int> rank(static_cast<std::size_t>(n));
  std::vector<int> vertex_at(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const int r =
        next_rank[static_cast<std::size_t>(max_degree - graph.degree(v))]++;
    rank[static_cast<std::size_t>(v)] = r;
    vertex_at[static_cast<std::size_t>(r)] = v;
  }

  // levels[s] holds the uncolored vertices of saturation s. A vertex's
  // saturation is at most the colors in use, so there are at most k + 1
  // levels of n bits each; `top` rises by at most one per colored
  // neighbour, so stepping it down to the next non-empty level is
  // amortized O(1).
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<RankSet> levels;
  levels.emplace_back(words);
  for (int r = 0; r < n; ++r) levels[0].insert(r);
  std::vector<int> saturation(static_cast<std::size_t>(n), 0);
  int top = 0;
  // neighbour_has[c * n + v]: some colored neighbour of v has color c.
  // One n-byte column per color in use, appended when the color is first
  // picked, so n * k bytes for k colors (the buffer's capacity doubles as
  // it grows), whatever the maximum degree.
  const auto un = static_cast<std::size_t>(n);
  std::vector<char> neighbour_has;
  std::size_t used = 0;

  for (int step = 0; step < n; ++step) {
    while (levels[static_cast<std::size_t>(top)].empty()) --top;
    RankSet& picked_level = levels[static_cast<std::size_t>(top)];
    const int best = vertex_at[static_cast<std::size_t>(picked_level.lowest())];
    picked_level.erase(rank[static_cast<std::size_t>(best)]);

    std::size_t color = 0;
    while (color < used &&
           neighbour_has[color * un + static_cast<std::size_t>(best)] != 0) {
      ++color;
    }
    if (color == used) neighbour_has.resize(++used * un, 0);
    colors[static_cast<std::size_t>(best)] = static_cast<int>(color);
    char* has_color = neighbour_has.data() + color * un;
    for (const int u : graph.neighbors(best)) {
      const auto ui = static_cast<std::size_t>(u);
      if (colors[ui] >= 0 || has_color[ui] != 0) continue;
      has_color[ui] = 1;
      const auto from = static_cast<std::size_t>(saturation[ui]++);
      if (from + 1 == levels.size()) levels.emplace_back(words);
      levels[from].erase(rank[ui]);
      levels[from + 1].insert(rank[ui]);
      top = std::max(top, saturation[ui]);
    }
  }
  return colors;
}

}  // namespace symcolor
