#include "sat/heap.h"

#include <cassert>

namespace symcolor {

void ActivityHeap::push(Var v) {
  if (v >= static_cast<Var>(index_.size())) {
    index_.resize(static_cast<std::size_t>(v) + 1, -1);
  }
  heap_.push_back(v);
  index_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

Var ActivityHeap::pop_max() {
  assert(!heap_.empty());
  const Var top = heap_.front();
  index_[static_cast<std::size_t>(top)] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
  return top;
}

void ActivityHeap::rebuild(const std::vector<Var>& vars) {
  heap_.clear();
  for (int& i : index_) i = -1;
  for (Var v : vars) insert(v);
}

void ActivityHeap::sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(heap_[parent], v)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, v);
}

void ActivityHeap::sift_down(std::size_t i) {
  const Var v = heap_[i];
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        (right < heap_.size() && less(heap_[left], heap_[right])) ? right : left;
    if (!less(v, heap_[child])) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, v);
}

}  // namespace symcolor
