#pragma once
// Ordered-partition refinement — the workhorse of graph automorphism
// detection (the core loop of Nauty/Saucy).
//
// A partition of the vertices into ordered cells is refined until it is
// *equitable*: every vertex in a cell has the same number of neighbours in
// every other cell. Refinement is driven by a worklist of splitter cells,
// so re-refining after individualizing a single vertex costs only the
// affected region of the graph. The sequence of splits (the refinement
// trace) is an isomorphism invariant used to prune the search tree.
//
// A split orders a cell's members by (neighbour count, vertex id). Most
// cells already list their members in ascending id order (every split
// leaves them so); for those the split is a stable compaction of the
// untouched members plus a sort of the touched ones only, which yields
// exactly the order of a whole-cell sort.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace symcolor {

/// Scratch buffers of OrderedPartition::refine. Reusing one across calls
/// (and across partitions of the same graph) makes refinement allocation
/// free once the buffers have grown. Not shareable between threads.
class RefineScratch {
 private:
  friend class OrderedPartition;
  std::vector<int> count_;          // vertex -> neighbours in the splitter
  std::vector<int> touched_;        // vertices with count_ > 0
  std::vector<int> cell_touched_;   // cell id -> touched members
  std::vector<int> touched_cells_;  // cells with cell_touched_ > 0
  std::vector<int> worklist_;
  std::vector<char> on_worklist_;   // cell id -> queued in worklist_
  std::vector<int> new_cells_;
  std::vector<int> buffer_;         // touched members of the cell being split
};

class OrderedPartition {
 public:
  /// Build the unit partition of n vertices grouped by `colors` (vertices
  /// with equal color share a cell; cells ordered by color value).
  /// `colors` empty means all vertices share one cell.
  OrderedPartition(int n, std::span<const int> colors);

  struct Cell {
    int start = 0;
    int size = 0;
    [[nodiscard]] bool singleton() const noexcept { return size == 1; }
  };

  [[nodiscard]] int num_vertices() const noexcept {
    return static_cast<int>(elements_.size());
  }
  [[nodiscard]] int num_cells() const noexcept { return num_cells_; }
  [[nodiscard]] bool discrete() const noexcept {
    return num_cells_ == num_vertices();
  }

  /// Ids of live cells are 0..cells_.size()-1 but dead (replaced) cells
  /// are skipped via the live flag. Iterate with for_each_cell.
  [[nodiscard]] const Cell& cell(int id) const {
    return cells_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int num_cell_slots() const noexcept {
    return static_cast<int>(cells_.size());
  }
  [[nodiscard]] bool cell_live(int id) const {
    return live_[static_cast<std::size_t>(id)] != 0;
  }
  [[nodiscard]] int cell_of(int vertex) const {
    return cell_of_[static_cast<std::size_t>(vertex)];
  }
  [[nodiscard]] std::span<const int> cell_elements(int id) const {
    const Cell& c = cells_[static_cast<std::size_t>(id)];
    return {elements_.data() + c.start, static_cast<std::size_t>(c.size)};
  }
  [[nodiscard]] std::span<const int> elements() const noexcept {
    return elements_;
  }

  /// True when every cell is known to list its members in ascending
  /// vertex order. Conservative: an individualized cell's remainder is
  /// counted as unsorted until a refinement reorders it.
  [[nodiscard]] bool cells_sorted() const noexcept {
    return unsorted_cells_ == 0;
  }

  /// The first smallest non-singleton cell id, or -1 if discrete.
  [[nodiscard]] int target_cell() const;

  /// Split `vertex` out of its (non-singleton) cell into a fresh leading
  /// singleton cell; returns the id of the singleton. The remainder keeps
  /// a new id as well. Call refine() afterwards with the returned id.
  int individualize(int vertex);

  /// Refine to an equitable partition, using `graph` adjacency, starting
  /// from the given splitter worklist (pass all live cells, or just the
  /// cell returned by individualize). Returns a trace hash: an
  /// isomorphism-invariant fingerprint of all splits performed.
  std::uint64_t refine(const Graph& graph, std::span<const int> worklist,
                       RefineScratch& scratch);
  /// As above with one-shot scratch buffers.
  std::uint64_t refine(const Graph& graph, std::span<const int> worklist);

  /// Labeling of a discrete partition: label[i] = vertex in cell position
  /// i; requires discrete().
  [[nodiscard]] std::vector<int> labeling() const;

 private:
  int split_cell(int cell_id, RefineScratch& s, std::uint64_t* trace);
  int add_cell(Cell cell, bool sorted);
  void retire(int cell_id);

  std::vector<int> elements_;   // vertices grouped by cell, cell-contiguous
  std::vector<int> position_;   // vertex -> index in elements_
  std::vector<int> cell_of_;    // vertex -> cell id
  std::vector<Cell> cells_;     // append-only; replaced cells marked dead
  std::vector<char> live_;
  std::vector<char> sorted_;    // cell id -> members in ascending order
  int num_cells_ = 0;
  int unsorted_cells_ = 0;      // live cells with sorted_ == 0
};

}  // namespace symcolor
