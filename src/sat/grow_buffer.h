#pragma once
// GrowBuffer<T> — a growable array of trivially copyable entries that
// grows with std::realloc. It is the storage of the clause arena
// (sat/clause_arena.h) and of the flat occurrence pools behind the watch
// lists and PB occurrence lists (sat/watcher_pool.h).
//
// Why not std::vector: a vector grows by allocating a new block, copying
// the entries over and freeing the old block, so while it grows both
// blocks are resident. On the engine's largest buffers (an arena full of
// long learnt clauses, the binary watch slab of a dense coloring CNF)
// that moment sets the peak RSS of a whole run. glibc's realloc moves an
// mmapped block with mremap, which remaps its pages instead of copying
// them, and extends a heap block in place when the space after it is
// free. MiniSat grows its vec and its clause RegionAllocator the same way
// (Eén & Sörensson, SAT 2003).
//
// Growth adds half the capacity (MiniSat's factor), so a grow that has to
// copy holds 2.5 times the entries at most, not 3 times. New entries from
// resize() are value-initialized, as in a vector. A copy holds exactly the
// source's entries (capacity == size), like a copied vector: ParallelSolver
// clones whole engines.

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

namespace symcolor {

template <typename T>
class GrowBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "GrowBuffer moves its entries with realloc and memcpy");

 public:
  GrowBuffer() = default;
  GrowBuffer(const GrowBuffer& other) { copy_from(other); }
  GrowBuffer(GrowBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }
  GrowBuffer& operator=(const GrowBuffer& other) {
    if (this != &other) {
      size_ = 0;
      if (other.size_ > capacity_) {
        std::free(data_);  // nothing to keep: do not let realloc copy it
        data_ = nullptr;
        capacity_ = 0;
      }
      copy_from(other);
    }
    return *this;
  }
  GrowBuffer& operator=(GrowBuffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = other.capacity_ = 0;
    }
    return *this;
  }
  ~GrowBuffer() { std::free(data_); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = value;
  }
  /// Append `n` entries copied from `first`, which must not point into
  /// this buffer (a grow would move them).
  void append(const T* first, std::size_t n) {
    if (size_ + n > capacity_) grow(size_ + n);
    if (n != 0) std::memcpy(data_ + size_, first, n * sizeof(T));
    size_ += n;
  }
  /// Shrink to `n` entries, or grow to `n` with value-initialized ones.
  void resize(std::size_t n) {
    if (n > capacity_) grow(n);
    if (n > size_) {
      std::uninitialized_value_construct_n(data_ + size_, n - size_);
    }
    size_ = n;
  }
  /// Capacity for at least `n` entries, with no growth headroom on top.
  void reserve(std::size_t n) {
    if (n > capacity_) reallocate(n);
  }
  void clear() noexcept { size_ = 0; }

 private:
  void grow(std::size_t needed) {
    reallocate(std::max(needed, capacity_ + capacity_ / 2 + 8));
  }
  void reallocate(std::size_t capacity) {
    void* p = std::realloc(static_cast<void*>(data_), capacity * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
    capacity_ = capacity;
  }
  void copy_from(const GrowBuffer& other) {
    reserve(other.size_);
    if (other.size_ != 0) {
      std::memcpy(data_, other.data_, other.size_ * sizeof(T));
    }
    size_ = other.size_;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace symcolor
