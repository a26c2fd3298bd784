#include "automorphism/refinement.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace symcolor {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

OrderedPartition::OrderedPartition(int n, std::span<const int> colors) {
  if (!colors.empty() && static_cast<int>(colors.size()) != n) {
    throw std::invalid_argument("color vector size mismatch");
  }
  elements_.resize(static_cast<std::size_t>(n));
  std::iota(elements_.begin(), elements_.end(), 0);
  if (!colors.empty()) {
    std::stable_sort(elements_.begin(), elements_.end(), [&](int a, int b) {
      return colors[static_cast<std::size_t>(a)] <
             colors[static_cast<std::size_t>(b)];
    });
  }
  position_.resize(static_cast<std::size_t>(n));
  cell_of_.resize(static_cast<std::size_t>(n));

  int start = 0;
  while (start < n) {
    int end = start + 1;
    if (!colors.empty()) {
      const int c = colors[static_cast<std::size_t>(elements_[static_cast<std::size_t>(start)])];
      while (end < n &&
             colors[static_cast<std::size_t>(elements_[static_cast<std::size_t>(end)])] == c) {
        ++end;
      }
    } else {
      end = n;
    }
    // The stable sort of 0..n-1 leaves every color class ascending.
    const int id = add_cell({start, end - start}, true);
    ++num_cells_;
    for (int i = start; i < end; ++i) {
      const int v = elements_[static_cast<std::size_t>(i)];
      position_[static_cast<std::size_t>(v)] = i;
      cell_of_[static_cast<std::size_t>(v)] = id;
    }
    start = end;
  }
}

int OrderedPartition::add_cell(Cell cell, bool sorted) {
  cells_.push_back(cell);
  live_.push_back(1);
  sorted_.push_back(sorted ? 1 : 0);
  if (!sorted) ++unsorted_cells_;
  return static_cast<int>(cells_.size()) - 1;
}

void OrderedPartition::retire(int cell_id) {
  live_[static_cast<std::size_t>(cell_id)] = 0;
  if (sorted_[static_cast<std::size_t>(cell_id)] == 0) --unsorted_cells_;
}

int OrderedPartition::target_cell() const {
  int best = -1;
  for (int id = 0; id < num_cell_slots(); ++id) {
    if (!cell_live(id)) continue;
    const Cell& c = cells_[static_cast<std::size_t>(id)];
    if (c.size <= 1) continue;
    if (best < 0 || c.size < cells_[static_cast<std::size_t>(best)].size ||
        (c.size == cells_[static_cast<std::size_t>(best)].size &&
         c.start < cells_[static_cast<std::size_t>(best)].start)) {
      best = id;
    }
  }
  return best;
}

int OrderedPartition::individualize(int vertex) {
  const int old_id = cell_of_[static_cast<std::size_t>(vertex)];
  const Cell old_cell = cells_[static_cast<std::size_t>(old_id)];
  assert(old_cell.size > 1);

  // Swap the vertex to the front of its cell's range.
  const int pos = position_[static_cast<std::size_t>(vertex)];
  const int front = old_cell.start;
  const int other = elements_[static_cast<std::size_t>(front)];
  std::swap(elements_[static_cast<std::size_t>(pos)],
            elements_[static_cast<std::size_t>(front)]);
  position_[static_cast<std::size_t>(vertex)] = front;
  position_[static_cast<std::size_t>(other)] = pos;

  // The remainder stays ascending only when the swap moved the old front
  // (the cell's minimum) no further than the remainder's first slot; a
  // one-member remainder always is.
  const bool rest_sorted = old_cell.size == 2 ||
                           (sorted_[static_cast<std::size_t>(old_id)] != 0 &&
                            pos - front <= 1);
  retire(old_id);
  const int singleton_id = add_cell({old_cell.start, 1}, true);
  const int rest_id =
      add_cell({old_cell.start + 1, old_cell.size - 1}, rest_sorted);
  ++num_cells_;  // one cell became two

  cell_of_[static_cast<std::size_t>(vertex)] = singleton_id;
  for (int i = old_cell.start + 1; i < old_cell.start + old_cell.size; ++i) {
    cell_of_[static_cast<std::size_t>(elements_[static_cast<std::size_t>(i)])] =
        rest_id;
  }
  return singleton_id;
}

int OrderedPartition::split_cell(int cell_id, RefineScratch& s,
                                 std::uint64_t* trace) {
  const Cell cell = cells_[static_cast<std::size_t>(cell_id)];
  const std::vector<int>& count = s.count_;
  const auto count_of = [&](int v) { return count[static_cast<std::size_t>(v)]; };
  const auto by_count = [&](int a, int b) {
    if (count_of(a) != count_of(b)) return count_of(a) < count_of(b);
    return a < b;  // ties by id, so every split leaves its cells ascending
  };
  const auto first = elements_.begin() + cell.start;
  const auto last = first + cell.size;

  // Group members by their neighbour count in the splitter, ties by id.
  if (sorted_[static_cast<std::size_t>(cell_id)] == 0) {
    std::sort(first, last, by_count);
  } else if (s.cell_touched_[static_cast<std::size_t>(cell_id)] == cell.size) {
    if (!std::is_sorted(first, last, by_count)) std::sort(first, last, by_count);
  } else {
    // Ascending cell: the untouched members (count 0) lead in their
    // current order; only the touched ones need sorting.
    s.buffer_.clear();
    auto out = first;
    for (auto it = first; it != last; ++it) {
      if (count_of(*it) == 0) {
        *out++ = *it;
      } else {
        s.buffer_.push_back(*it);
      }
    }
    if (!std::is_sorted(s.buffer_.begin(), s.buffer_.end(), by_count)) {
      std::sort(s.buffer_.begin(), s.buffer_.end(), by_count);
    }
    std::copy(s.buffer_.begin(), s.buffer_.end(), out);
  }

  // Detect group boundaries.
  s.new_cells_.clear();
  const int end = cell.start + cell.size;
  int group_start = cell.start;
  int largest = -1;
  int largest_size = 0;
  for (int i = cell.start; i < end; ++i) {
    const bool last_member = (i + 1 == end);
    const int c = count_of(elements_[static_cast<std::size_t>(i)]);
    if (last_member || c != count_of(elements_[static_cast<std::size_t>(i + 1)])) {
      const int group_size = i + 1 - group_start;
      if (group_start == cell.start && last_member) {
        // Single group: no split. An unsorted cell was permuted by the
        // sort and is ascending now.
        if (sorted_[static_cast<std::size_t>(cell_id)] == 0) {
          for (int j = cell.start; j < end; ++j) {
            position_[static_cast<std::size_t>(
                elements_[static_cast<std::size_t>(j)])] = j;
          }
          sorted_[static_cast<std::size_t>(cell_id)] = 1;
          --unsorted_cells_;
        }
        return 0;
      }
      const int id = add_cell({group_start, group_size}, true);
      s.new_cells_.push_back(id);
      *trace = mix(*trace, static_cast<std::uint64_t>(c) * 1315423911ULL +
                               static_cast<std::uint64_t>(group_size));
      if (group_size > largest_size) {
        largest_size = group_size;
        largest = id;
      }
      group_start = i + 1;
    }
  }

  // Commit the split: retire the parent, relabel members.
  retire(cell_id);
  num_cells_ += static_cast<int>(s.new_cells_.size()) - 1;
  for (const int id : s.new_cells_) {
    const Cell& c = cells_[static_cast<std::size_t>(id)];
    for (int i = c.start; i < c.start + c.size; ++i) {
      const int v = elements_[static_cast<std::size_t>(i)];
      position_[static_cast<std::size_t>(v)] = i;
      cell_of_[static_cast<std::size_t>(v)] = id;
    }
  }
  *trace = mix(*trace, static_cast<std::uint64_t>(cell_id));
  return largest;
}

std::uint64_t OrderedPartition::refine(const Graph& graph,
                                       std::span<const int> worklist) {
  RefineScratch scratch;
  return refine(graph, worklist, scratch);
}

std::uint64_t OrderedPartition::refine(const Graph& graph,
                                       std::span<const int> worklist,
                                       RefineScratch& s) {
  std::uint64_t trace = 0x51CA9D;
  if (s.count_.size() < elements_.size()) s.count_.resize(elements_.size(), 0);
  // on_worklist_ and cell_touched_ are all zero between calls; they only
  // ever grow.
  const auto slots = [&] { return cells_.size(); };
  if (s.on_worklist_.size() < slots()) s.on_worklist_.resize(slots(), 0);
  const auto valid = [&](int id) {
    return id >= 0 && static_cast<std::size_t>(id) < slots();
  };
  s.worklist_.assign(worklist.begin(), worklist.end());
  for (const int id : s.worklist_) {
    if (valid(id)) s.on_worklist_[static_cast<std::size_t>(id)] = 1;
  }

  std::size_t head = 0;
  while (head < s.worklist_.size()) {
    const int splitter = s.worklist_[head++];
    if (!valid(splitter)) continue;
    s.on_worklist_[static_cast<std::size_t>(splitter)] = 0;
    if (!live_[static_cast<std::size_t>(splitter)]) continue;
    if (discrete()) break;

    // Count neighbours in the splitter; remember touched vertices and
    // cells (a cell is new when its touched counter leaves zero).
    if (s.cell_touched_.size() < slots()) s.cell_touched_.resize(slots(), 0);
    const Cell splitter_cell = cells_[static_cast<std::size_t>(splitter)];
    for (int i = splitter_cell.start;
         i < splitter_cell.start + splitter_cell.size; ++i) {
      for (const int w : graph.neighbors(elements_[static_cast<std::size_t>(i)])) {
        if (s.count_[static_cast<std::size_t>(w)]++ != 0) continue;
        s.touched_.push_back(w);
        const int c = cell_of_[static_cast<std::size_t>(w)];
        if (s.cell_touched_[static_cast<std::size_t>(c)]++ == 0) {
          s.touched_cells_.push_back(c);
        }
      }
    }
    std::sort(s.touched_cells_.begin(), s.touched_cells_.end());

    for (const int cell_id : s.touched_cells_) {
      if (cells_[static_cast<std::size_t>(cell_id)].size == 1) continue;
      const int largest = split_cell(cell_id, s, &trace);
      if (s.new_cells_.empty()) continue;
      s.on_worklist_.resize(std::max(s.on_worklist_.size(), slots()), 0);
      const bool parent_queued =
          s.on_worklist_[static_cast<std::size_t>(cell_id)] != 0;
      if (parent_queued) s.on_worklist_[static_cast<std::size_t>(cell_id)] = 0;
      for (const int id : s.new_cells_) {
        // Hopcroft's trick: when the parent was not pending, the largest
        // part can be skipped as a future splitter.
        if (!parent_queued && id == largest) continue;
        s.worklist_.push_back(id);
        s.on_worklist_[static_cast<std::size_t>(id)] = 1;
      }
    }

    // Clear scratch counts.
    for (const int w : s.touched_) s.count_[static_cast<std::size_t>(w)] = 0;
    for (const int c : s.touched_cells_) {
      s.cell_touched_[static_cast<std::size_t>(c)] = 0;
    }
    s.touched_.clear();
    s.touched_cells_.clear();
  }
  for (; head < s.worklist_.size(); ++head) {
    const int id = s.worklist_[head];
    if (valid(id)) s.on_worklist_[static_cast<std::size_t>(id)] = 0;
  }
  trace = mix(trace, static_cast<std::uint64_t>(num_cells_));
  return trace;
}

std::vector<int> OrderedPartition::labeling() const {
  assert(discrete());
  return elements_;
}

}  // namespace symcolor
