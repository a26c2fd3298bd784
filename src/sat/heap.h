#pragma once
// Indexed max-heap over variables keyed by activity score.
//
// The VSIDS decision order needs three operations the standard library
// does not combine: pop-max, increase-key for an arbitrary variable, and
// membership test. This is the classic MiniSat order heap. Scores only
// rise (bumps) or shrink all together (rescaling by one positive factor
// keeps every parent no smaller than its children), so restoring order
// after a change is a sift up alone.

#include <vector>

#include "cnf/literals.h"

namespace symcolor {

class ActivityHeap {
 public:
  /// The heap owns the score array (one double per variable): comparisons
  /// read it directly, the solver raises a score through scores() and then
  /// calls increase() to restore heap order. Owning the scores keeps the
  /// class a plain value type — the solver clone path copies heap and
  /// scores together with no rebinding step.
  ActivityHeap() = default;

  /// Reset to `n` variables, all with score `value`.
  void assign_scores(std::size_t n, double value) {
    activity_.assign(n, value);
  }
  [[nodiscard]] std::vector<double>& scores() noexcept { return activity_; }
  [[nodiscard]] const std::vector<double>& scores() const noexcept {
    return activity_;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] bool contains(Var v) const noexcept {
    return v >= 0 && v < static_cast<Var>(index_.size()) && index_[static_cast<std::size_t>(v)] >= 0;
  }

  /// Insert `v` if absent. Inline, because backtrack() calls it for
  /// every variable it undoes and most of them are still in the heap.
  void insert(Var v) {
    if (!contains(v)) push(v);
  }

  /// Restore heap order after `v`'s score rose (no-op when `v` is absent).
  void increase(Var v) {
    if (contains(v)) {
      sift_up(static_cast<std::size_t>(index_[static_cast<std::size_t>(v)]));
    }
  }

  /// Remove and return the variable with maximal activity.
  Var pop_max();

  /// Drop everything and rebuild from `vars`.
  void rebuild(const std::vector<Var>& vars);

 private:
  [[nodiscard]] bool less(Var a, Var b) const noexcept {
    return activity_[static_cast<std::size_t>(a)] <
           activity_[static_cast<std::size_t>(b)];
  }
  /// insert() past its membership test.
  void push(Var v);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, Var v) {
    heap_[i] = v;
    index_[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }

  std::vector<double> activity_;  // score per variable, owned
  std::vector<Var> heap_;
  std::vector<int> index_;  // var -> heap position, -1 when absent
};

}  // namespace symcolor
