#include "calibration.h"

#include <array>
#include <bit>
#include <cstdint>

#include "cpu_clock.h"

namespace suitebench {

namespace {

constexpr int kVertices = 175;
constexpr int kWords = (kVertices + 63) / 64;
using Bits = std::array<std::uint64_t, kWords>;

int count(const Bits& b) {
  int n = 0;
  for (const std::uint64_t w : b) n += std::popcount(w);
  return n;
}

/// G(175, 1/2) from a fixed xorshift stream, as adjacency bitsets.
std::array<Bits, kVertices> make_graph() {
  std::array<Bits, kVertices> adj{};
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int u = 0; u < kVertices; ++u) {
    for (int v = u + 1; v < kVertices; ++v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if (x >> 63) {
        adj[u][v / 64] |= std::uint64_t{1} << (v % 64);
        adj[v][u / 64] |= std::uint64_t{1} << (u % 64);
      }
    }
  }
  return adj;
}

/// Carraghan-Pardalos branch and bound, the algorithm behind dfmax.
class CliqueSearch {
 public:
  explicit CliqueSearch(const std::array<Bits, kVertices>& adj) : adj_(adj) {}

  int run() {
    Bits all{};
    for (int v = 0; v < kVertices; ++v) {
      all[v / 64] |= std::uint64_t{1} << (v % 64);
    }
    best_ = 0;
    expand(all, 0);
    return best_;
  }

 private:
  void expand(Bits cand, int size) {
    int left = count(cand);
    if (left == 0) {
      if (size > best_) best_ = size;
      return;
    }
    for (int w = 0; w < kWords; ++w) {
      while (cand[w] != 0) {
        if (size + left <= best_) return;
        const int v = w * 64 + std::countr_zero(cand[w]);
        cand[w] &= cand[w] - 1;
        --left;
        Bits next;
        for (int i = 0; i < kWords; ++i) next[i] = cand[i] & adj_[v][i];
        expand(next, size + 1);
      }
    }
  }

  const std::array<Bits, kVertices>& adj_;
  int best_ = 0;
};

}  // namespace

double reference_sample() {
  static const std::array<Bits, kVertices> graph = make_graph();
  CpuTimer timer;
  volatile int clique = CliqueSearch(graph).run();  // keeps the search
  (void)clique;
  return timer.seconds();
}

}  // namespace suitebench
