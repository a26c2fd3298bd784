#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace symcolor {

void Graph::reset(int num_vertices) {
  if (num_vertices < 0) throw std::invalid_argument("negative vertex count");
  num_vertices_ = num_vertices;
  offsets_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  neighbors_.clear();
  edges_.clear();
  finalized_ = true;
}

void Graph::add_edge(int u, int v) {
  if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices()) {
    throw std::out_of_range("edge endpoint out of range");
  }
  if (u == v) return;  // ignore self-loops: they are uncolorable artifacts
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v});
  finalized_ = false;
}

void Graph::finalize() {
  if (finalized_) return;
  // CSR build by counting sort: count both endpoints of every recorded
  // edge (duplicates included), prefix-sum into offsets, and scatter.
  const auto n = static_cast<std::size_t>(num_vertices_);
  offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  neighbors_.resize(2 * edges_.size());
  {
    std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
    for (const Edge& e : edges_) {
      neighbors_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(e.u)]++)] = e.v;
      neighbors_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(e.v)]++)] = e.u;
    }
  }
  // Sort and dedup each row, compacting the rows leftward in place: the
  // write position never passes the start of the row being read.
  std::size_t write = 0;
  std::size_t row_begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto row_end = static_cast<std::size_t>(offsets_[v + 1]);
    const auto first = neighbors_.begin() + static_cast<std::ptrdiff_t>(row_begin);
    const auto last = neighbors_.begin() + static_cast<std::ptrdiff_t>(row_end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    if (write != row_begin) {
      std::copy(first, unique_end,
                neighbors_.begin() + static_cast<std::ptrdiff_t>(write));
    }
    write += static_cast<std::size_t>(unique_end - first);
    row_begin = row_end;
    offsets_[v + 1] = static_cast<int>(write);
  }
  neighbors_.resize(write);
  // The edge list, regenerated from the rows in (u, v) order.
  edges_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    const auto end = static_cast<std::size_t>(offsets_[u + 1]);
    for (auto k = static_cast<std::size_t>(offsets_[u]); k < end; ++k) {
      const int v = neighbors_[k];
      if (static_cast<std::size_t>(v) > u) {
        edges_.push_back({static_cast<int>(u), v});
      }
    }
  }
  finalized_ = true;
}

void Graph::check_vertex(int v) const {
  if (v < 0 || v >= num_vertices_) {
    throw std::out_of_range("vertex out of range");
  }
}

std::span<const int> Graph::neighbors(int v) const {
  assert(finalized_);
  check_vertex(v);
  const auto begin = static_cast<std::size_t>(
      offsets_[static_cast<std::size_t>(v)]);
  const auto end = static_cast<std::size_t>(
      offsets_[static_cast<std::size_t>(v) + 1]);
  return {neighbors_.data() + begin, end - begin};
}

int Graph::degree(int v) const {
  assert(finalized_);
  check_vertex(v);
  return offsets_[static_cast<std::size_t>(v) + 1] -
         offsets_[static_cast<std::size_t>(v)];
}

bool Graph::has_edge(int u, int v) const {
  assert(finalized_);
  check_vertex(v);
  if (u == v) return false;
  const std::span<const int> adj = neighbors(u);  // range-checks u
  return std::binary_search(adj.begin(), adj.end(), v);
}

int Graph::max_degree() const {
  assert(finalized_);
  int best = 0;
  for (int v = 0; v < num_vertices_; ++v) {
    best = std::max(best, offsets_[static_cast<std::size_t>(v) + 1] -
                              offsets_[static_cast<std::size_t>(v)]);
  }
  return best;
}

double Graph::density() const {
  const double n = num_vertices();
  if (n < 2) return 0.0;
  return static_cast<double>(num_edges()) / (n * (n - 1.0) / 2.0);
}

Graph Graph::relabeled(std::span<const int> perm) const {
  if (static_cast<int>(perm.size()) != num_vertices()) {
    throw std::invalid_argument("permutation size mismatch");
  }
  Graph out(num_vertices());
  for (const Edge& e : edges_) {
    out.add_edge(perm[static_cast<std::size_t>(e.u)],
                 perm[static_cast<std::size_t>(e.v)]);
  }
  out.finalize();
  return out;
}

Graph Graph::complement() const {
  assert(finalized_);
  const int n = num_vertices();
  Graph out(n);
  for (int u = 0; u < n; ++u) {
    const std::span<const int> adj = neighbors(u);
    std::size_t k = 0;
    for (int v = u + 1; v < n; ++v) {
      while (k < adj.size() && adj[k] < v) ++k;
      const bool adjacent = k < adj.size() && adj[k] == v;
      if (!adjacent) out.add_edge(u, v);
    }
  }
  out.finalize();
  return out;
}

bool Graph::is_proper_coloring(std::span<const int> colors) const {
  if (static_cast<int>(colors.size()) != num_vertices()) return false;
  for (const Edge& e : edges_) {
    if (colors[static_cast<std::size_t>(e.u)] ==
        colors[static_cast<std::size_t>(e.v)]) {
      return false;
    }
  }
  return true;
}

int Graph::count_colors(std::span<const int> colors) {
  std::vector<int> used(colors.begin(), colors.end());
  std::sort(used.begin(), used.end());
  return static_cast<int>(std::unique(used.begin(), used.end()) -
                          used.begin());
}

}  // namespace symcolor
