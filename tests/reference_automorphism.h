#pragma once
// Test-only reference for the automorphism search: the plain
// individualization-refinement search that find_automorphisms must agree
// with generator for generator. Every refinement split sorts the whole
// cell by (neighbour count, id), every other-path subtree is searched
// down to a leaf, and every leaf is checked against all edges. It has no
// sparse exit, no touched-only splits and no buffer reuse, so a
// differential test against it checks those optimizations.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "automorphism/perm.h"
#include "automorphism/search.h"
#include "graph/graph.h"

namespace symcolor::reference {

class Partition {
 public:
  Partition(int n, std::span<const int> colors)
      : elements_(static_cast<std::size_t>(n)),
        position_(static_cast<std::size_t>(n)),
        cell_of_(static_cast<std::size_t>(n)),
        count_(static_cast<std::size_t>(n), 0) {
    std::iota(elements_.begin(), elements_.end(), 0);
    if (!colors.empty()) {
      std::stable_sort(elements_.begin(), elements_.end(),
                       [&](int a, int b) { return colors[a] < colors[b]; });
    }
    int start = 0;
    while (start < n) {
      int end = start + 1;
      while (end < n && (colors.empty() ||
                         colors[elements_[end]] == colors[elements_[start]])) {
        ++end;
      }
      const int id = static_cast<int>(cells_.size());
      cells_.push_back({start, end - start});
      live_.push_back(1);
      ++num_cells_;
      for (int i = start; i < end; ++i) {
        position_[elements_[i]] = i;
        cell_of_[elements_[i]] = id;
      }
      start = end;
    }
  }

  bool discrete() const { return num_cells_ == static_cast<int>(elements_.size()); }
  const std::vector<int>& elements() const { return elements_; }
  int num_cell_slots() const { return static_cast<int>(cells_.size()); }
  bool cell_live(int id) const { return live_[id] != 0; }
  std::vector<int> cell_elements(int id) const {
    const Cell& c = cells_[id];
    return {elements_.begin() + c.start, elements_.begin() + c.start + c.size};
  }

  int target_cell() const {
    int best = -1;
    for (int id = 0; id < num_cell_slots(); ++id) {
      const Cell& c = cells_[id];
      if (!live_[id] || c.size <= 1) continue;
      if (best < 0 || c.size < cells_[best].size ||
          (c.size == cells_[best].size && c.start < cells_[best].start)) {
        best = id;
      }
    }
    return best;
  }

  int individualize(int vertex) {
    const int old_id = cell_of_[vertex];
    const Cell old_cell = cells_[old_id];
    const int pos = position_[vertex];
    const int other = elements_[old_cell.start];
    std::swap(elements_[pos], elements_[old_cell.start]);
    position_[vertex] = old_cell.start;
    position_[other] = pos;
    live_[old_id] = 0;
    const int singleton_id = static_cast<int>(cells_.size());
    cells_.push_back({old_cell.start, 1});
    cells_.push_back({old_cell.start + 1, old_cell.size - 1});
    live_.push_back(1);
    live_.push_back(1);
    ++num_cells_;
    cell_of_[vertex] = singleton_id;
    for (int i = old_cell.start + 1; i < old_cell.start + old_cell.size; ++i) {
      cell_of_[elements_[i]] = singleton_id + 1;
    }
    return singleton_id;
  }

  std::uint64_t refine(const Graph& graph, std::vector<int> worklist) {
    std::uint64_t trace = 0x51CA9D;
    std::vector<char> on_worklist(live_.size(), 0);
    for (const int id : worklist) on_worklist[id] = 1;
    std::vector<int> new_cells;
    for (std::size_t head = 0; head < worklist.size(); ++head) {
      const int splitter = worklist[head];
      on_worklist[splitter] = 0;
      if (!live_[splitter]) continue;
      if (discrete()) break;
      const std::vector<int> splitter_elements = cell_elements(splitter);
      std::vector<int> touched;
      for (const int u : splitter_elements) {
        for (const int w : graph.neighbors(u)) {
          if (count_[w]++ == 0 &&
              std::find(touched.begin(), touched.end(), cell_of_[w]) ==
                  touched.end()) {
            touched.push_back(cell_of_[w]);
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      for (const int cell_id : touched) {
        if (cells_[cell_id].size == 1) continue;
        const int largest = split(cell_id, &new_cells, &trace);
        if (new_cells.empty()) continue;
        on_worklist.resize(live_.size(), 0);
        const bool parent_queued = on_worklist[cell_id] != 0;
        on_worklist[cell_id] = 0;
        for (const int id : new_cells) {
          if (!parent_queued && id == largest) continue;
          worklist.push_back(id);
          on_worklist[id] = 1;
        }
      }
      for (const int u : splitter_elements) {
        for (const int w : graph.neighbors(u)) count_[w] = 0;
      }
    }
    return mix(trace, static_cast<std::uint64_t>(num_cells_));
  }

 private:
  struct Cell {
    int start;
    int size;
  };

  static std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
    return h ^ (value + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  }

  int split(int cell_id, std::vector<int>* new_cells, std::uint64_t* trace) {
    const Cell cell = cells_[cell_id];
    const auto begin = elements_.begin() + cell.start;
    std::sort(begin, begin + cell.size, [&](int a, int b) {
      return count_[a] != count_[b] ? count_[a] < count_[b] : a < b;
    });
    new_cells->clear();
    const int end = cell.start + cell.size;
    int group_start = cell.start;
    int largest = -1;
    int largest_size = 0;
    for (int i = cell.start; i < end; ++i) {
      const int c = count_[elements_[i]];
      if (i + 1 < end && count_[elements_[i + 1]] == c) continue;
      if (group_start == cell.start && i + 1 == end) {
        for (int j = cell.start; j < end; ++j) position_[elements_[j]] = j;
        return 0;
      }
      const int size = i + 1 - group_start;
      new_cells->push_back(static_cast<int>(cells_.size()));
      cells_.push_back({group_start, size});
      live_.push_back(1);
      *trace = mix(*trace, static_cast<std::uint64_t>(c) * 1315423911ULL +
                               static_cast<std::uint64_t>(size));
      if (size > largest_size) {
        largest_size = size;
        largest = new_cells->back();
      }
      group_start = i + 1;
    }
    live_[cell_id] = 0;
    num_cells_ += static_cast<int>(new_cells->size()) - 1;
    for (const int id : *new_cells) {
      for (int i = cells_[id].start; i < cells_[id].start + cells_[id].size; ++i) {
        position_[elements_[i]] = i;
        cell_of_[elements_[i]] = id;
      }
    }
    *trace = mix(*trace, static_cast<std::uint64_t>(cell_id));
    return largest;
  }

  std::vector<int> elements_;
  std::vector<int> position_;
  std::vector<int> cell_of_;
  std::vector<Cell> cells_;
  std::vector<char> live_;
  int num_cells_ = 0;
  std::vector<int> count_;
};

/// Every edge maps to an edge and every vertex keeps its color.
inline bool maps_all_edges(const Graph& graph, std::span<const int> perm,
                           std::span<const int> colors) {
  for (std::size_t v = 0; v < perm.size() && !colors.empty(); ++v) {
    if (colors[v] != colors[perm[v]]) return false;
  }
  for (const Edge& e : graph.edges()) {
    if (!graph.has_edge(perm[e.u], perm[e.v])) return false;
  }
  return true;
}

class Search {
 public:
  Search(const Graph& graph, std::span<const int> colors)
      : graph_(graph), colors_(colors.begin(), colors.end()),
        orbit_(static_cast<std::size_t>(graph.num_vertices())) {
    std::iota(orbit_.begin(), orbit_.end(), 0);
  }

  AutomorphismResult run() {
    if (graph_.num_vertices() == 0) return result_;
    Partition root(graph_.num_vertices(), colors_);
    std::vector<int> all_cells;
    for (int id = 0; id < root.num_cell_slots(); ++id) {
      if (root.cell_live(id)) all_cells.push_back(id);
    }
    traces_.push_back(root.refine(graph_, all_cells));
    first_path(root, 0);
    return result_;
  }

 private:
  int find(int x) {
    while (orbit_[x] != x) x = orbit_[x] = orbit_[orbit_[x]];
    return x;
  }

  void first_path(const Partition& node, int level) {
    ++result_.nodes;
    if (node.discrete()) {
      base_leaf_ = node.elements();
      ++result_.leaves;
      return;
    }
    const std::vector<int> cell = node.cell_elements(node.target_cell());
    const int v = cell.front();
    {
      Partition child = node;
      traces_.push_back(child.refine(graph_, {child.individualize(v)}));
      first_path(child, level + 1);
    }
    std::vector<int> explored{v};
    for (std::size_t i = 1; i < cell.size(); ++i) {
      const int w = cell[i];
      if (std::any_of(explored.begin(), explored.end(),
                      [&](int e) { return find(e) == find(w); })) {
        continue;
      }
      explored.push_back(w);
      Partition child = node;
      if (child.refine(graph_, {child.individualize(w)}) == traces_[level + 1]) {
        other_path(child, level + 1);
      }
    }
    const auto orbit_size = std::count_if(
        cell.begin(), cell.end(), [&](int w) { return find(w) == find(v); });
    if (orbit_size > 1) {
      result_.log10_order += std::log10(static_cast<double>(orbit_size));
    }
  }

  bool other_path(const Partition& node, int level) {
    ++result_.nodes;
    if (node.discrete()) {
      ++result_.leaves;
      return try_leaf(node);
    }
    if (static_cast<int>(traces_.size()) <= level + 1) {
      ++result_.bad_leaves;
      return false;
    }
    for (const int w : node.cell_elements(node.target_cell())) {
      Partition child = node;
      if (child.refine(graph_, {child.individualize(w)}) != traces_[level + 1]) {
        continue;
      }
      if (other_path(child, level + 1)) return true;
    }
    return false;
  }

  bool try_leaf(const Partition& leaf) {
    Perm perm(base_leaf_.size());
    for (std::size_t i = 0; i < base_leaf_.size(); ++i) {
      perm[base_leaf_[i]] = leaf.elements()[i];
    }
    if (is_identity(perm)) return false;
    if (!maps_all_edges(graph_, perm, colors_)) {
      ++result_.bad_leaves;
      return false;
    }
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const int a = find(static_cast<int>(i));
      const int b = find(perm[i]);
      if (a != b) orbit_[a] = b;
    }
    result_.generators.push_back(std::move(perm));
    return true;
  }

  const Graph& graph_;
  std::vector<int> colors_;
  std::vector<int> orbit_;  // union-find over vertices
  AutomorphismResult result_;
  std::vector<std::uint64_t> traces_;
  std::vector<int> base_leaf_;
};

/// The reference search, without a deadline.
inline AutomorphismResult find_automorphisms(const Graph& graph,
                                             std::span<const int> colors = {}) {
  return Search(graph, colors).run();
}

}  // namespace symcolor::reference
