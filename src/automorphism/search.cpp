#include "automorphism/search.h"

#include <cmath>
#include <deque>

#include "automorphism/refinement.h"

namespace symcolor {
namespace {

/// Plain union-find over vertices, merged with every discovered generator.
class DisjointSets {
 public:
  explicit DisjointSets(int n) : parent_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(a)] = b;
  }
  void merge_perm(std::span<const int> p) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] != static_cast<int>(i)) unite(static_cast<int>(i), p[i]);
    }
  }

 private:
  std::vector<int> parent_;
};

/// True iff `perm` maps every edge at a vertex of `moved` (the points
/// `perm` moves) to an edge, respecting `colors`. Every other edge has
/// two fixed endpoints and maps to itself.
bool maps_edges_at(const Graph& graph, std::span<const int> perm,
                   std::span<const int> moved, std::span<const int> colors) {
  for (const int u : moved) {
    const int image = perm[static_cast<std::size_t>(u)];
    if (!colors.empty() && colors[static_cast<std::size_t>(u)] !=
                               colors[static_cast<std::size_t>(image)]) {
      return false;
    }
    for (const int x : graph.neighbors(u)) {
      if (!graph.has_edge(image, perm[static_cast<std::size_t>(x)])) return false;
    }
  }
  return true;
}

class Search {
 public:
  Search(const Graph& graph, std::span<const int> colors,
         const SolveBudget& budget)
      : graph_(graph),
        colors_(colors.begin(), colors.end()),
        budget_(budget),
        theta_(graph.num_vertices()),
        gamma_(identity_perm(graph.num_vertices())) {}

  AutomorphismResult run() {
    Timer timer;
    const int n = graph_.num_vertices();
    if (n == 0 || budget_exceeded()) {
      result_.seconds = timer.seconds();
      return std::move(result_);
    }
    nodes_.emplace_back(n, colors_);
    std::vector<int> all_cells;
    for (int id = 0; id < nodes_[0].num_cell_slots(); ++id) {
      if (nodes_[0].cell_live(id)) all_cells.push_back(id);
    }
    first_traces_.push_back(nodes_[0].refine(graph_, all_cells, scratch_));
    first_path(0);
    result_.seconds = timer.seconds();
    return std::move(result_);
  }

 private:
  /// Polled at every node, so even a search of a handful of nodes sees
  /// an expired deadline or an interrupt.
  [[nodiscard]] bool budget_exceeded() {
    if (result_.complete && budget_.poll() != BudgetTrip::None) {
      result_.complete = false;
    }
    return !result_.complete;
  }

  /// Build the child of the node at `level` that individualizes `vertex`
  /// into the reusable slot of depth level + 1; returns its trace.
  std::uint64_t make_child(int level, int vertex) {
    const auto slot = static_cast<std::size_t>(level + 1);
    if (nodes_.size() <= slot) {
      nodes_.push_back(nodes_[slot - 1]);
    } else {
      nodes_[slot] = nodes_[slot - 1];
    }
    const int singleton[] = {nodes_[slot].individualize(vertex)};
    return nodes_[slot].refine(graph_, singleton, scratch_);
  }

  /// Descend the leftmost path; afterwards explore sibling children with
  /// orbit pruning and accumulate the group order.
  void first_path(int level) {
    ++result_.nodes;
    if (budget_exceeded()) return;
    // Children go to deeper slots, so `node` and `cell` stay valid.
    const OrderedPartition& node = nodes_[static_cast<std::size_t>(level)];
    first_elements_.emplace_back(node.elements().begin(), node.elements().end());
    if (node.discrete()) {
      base_leaf_ = node.labeling();
      ++result_.leaves;
      return;
    }
    const std::span<const int> cell = node.cell_elements(node.target_cell());
    const int v = cell.front();

    first_traces_.push_back(make_child(level, v));
    first_path(level + 1);
    if (!result_.complete) return;

    // Explore the remaining children of this first-path node.
    std::vector<int> explored{v};
    for (std::size_t i = 1; i < cell.size(); ++i) {
      if (budget_exceeded()) return;
      const int w = cell[i];
      bool pruned = false;
      for (const int e : explored) {
        if (theta_.find(w) == theta_.find(e)) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
      explored.push_back(w);
      if (make_child(level, w) != first_traces_[static_cast<std::size_t>(level + 1)]) {
        continue;
      }
      other_path(level + 1);
    }

    // Group order contribution: |orbit of v within the target cell|.
    int orbit_size = 0;
    for (const int w : cell) {
      if (theta_.find(w) == theta_.find(v)) ++orbit_size;
    }
    if (orbit_size > 1) {
      result_.log10_order += std::log10(static_cast<double>(orbit_size));
    }
  }

  /// Search one subtree for a single automorphism (Saucy-style early
  /// exit). Returns true when one was found.
  bool other_path(int level) {
    ++result_.nodes;
    if (budget_exceeded()) return false;
    const OrderedPartition& node = nodes_[static_cast<std::size_t>(level)];
    if (node.discrete()) {
      ++result_.leaves;
      return try_leaf(node);
    }
    if (static_cast<int>(first_traces_.size()) <= level + 1) {
      // The first path ended above this depth; structure mismatch.
      ++result_.bad_leaves;
      return false;
    }
    if (node.cells_sorted() && try_sparse_exit(node, level)) return true;
    const std::span<const int> cell = node.cell_elements(node.target_cell());
    for (const int w : cell) {
      if (budget_exceeded()) return false;
      if (make_child(level, w) != first_traces_[static_cast<std::size_t>(level + 1)]) {
        continue;
      }
      if (other_path(level + 1)) return true;
    }
    return false;
  }

  /// Saucy's sparse-automorphism exit (Darga, Sakallah & Markov, DAC'08):
  /// test the positional map from the first-path node at this depth to
  /// `node` without descending. The caller guarantees that every cell of
  /// `node` is ascending, as every first-path cell is; then the map is
  /// monotone on each cell, and if it is an automorphism, refinement
  /// commutes with it all the way down. The descent's first leaf would
  /// therefore yield this very map, so the exit returns the same
  /// generator as the leaf-only search.
  bool try_sparse_exit(const OrderedPartition& node, int level) {
    const std::vector<int>& first = first_elements_[static_cast<std::size_t>(level)];
    const std::span<const int> here = node.elements();
    moved_.clear();
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (first[i] != here[i]) {
        gamma_[static_cast<std::size_t>(first[i])] = here[i];
        moved_.push_back(first[i]);
      }
    }
    const bool found =
        !moved_.empty() && maps_edges_at(graph_, gamma_, moved_, colors_);
    if (found) {
      ++result_.leaves;
      record(Perm(gamma_));
    }
    for (const int u : moved_) gamma_[static_cast<std::size_t>(u)] = u;
    return found;
  }

  bool try_leaf(const OrderedPartition& leaf) {
    const std::vector<int> labeling = leaf.labeling();
    Perm perm(base_leaf_.size());
    for (std::size_t i = 0; i < base_leaf_.size(); ++i) {
      perm[static_cast<std::size_t>(base_leaf_[i])] = labeling[i];
    }
    if (is_identity(perm)) return false;
    if (!is_automorphism(graph_, perm, colors_)) {
      ++result_.bad_leaves;
      return false;
    }
    record(std::move(perm));
    return true;
  }

  void record(Perm perm) {
    theta_.merge_perm(perm);
    result_.generators.push_back(std::move(perm));
  }

  const Graph& graph_;
  std::vector<int> colors_;
  const SolveBudget& budget_;
  DisjointSets theta_;
  AutomorphismResult result_;
  std::vector<std::uint64_t> first_traces_;
  std::vector<std::vector<int>> first_elements_;  // per first-path depth
  std::vector<int> base_leaf_;
  std::deque<OrderedPartition> nodes_;  // one reusable node per depth
  RefineScratch scratch_;
  Perm gamma_;              // identity between sparse-exit tests
  std::vector<int> moved_;
};

}  // namespace

bool is_automorphism(const Graph& graph, std::span<const int> perm,
                     std::span<const int> colors) {
  if (static_cast<int>(perm.size()) != graph.num_vertices()) return false;
  if (!is_permutation(perm)) return false;
  return maps_edges_at(graph, perm, support(perm), colors);
}

AutomorphismResult find_automorphisms(const Graph& graph,
                                      std::span<const int> colors,
                                      const SolveBudget& budget) {
  Search search(graph, colors, budget);
  return search.run();
}

}  // namespace symcolor
