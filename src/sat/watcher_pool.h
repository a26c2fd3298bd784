#pragma once
// Flat per-literal occurrence pool — the storage behind watch lists and
// PB occurrence lists in the CDCL engine.
//
// A `FlatOccPool<Entry>` replaces `vector<vector<Entry>>` with one
// contiguous slab of entries plus a per-row {offset, size, capacity}
// header. Rows are indexed by literal code. The propagation hot loop
// then walks a single allocation instead of chasing a heap pointer per
// literal, and consecutive rows share cache lines after compaction.
//
// Layout: `lay_out()` gives every row of a fresh pool its block up front
// from a count of the entries it will receive, each with the headroom
// `rebuild()` leaves (half again plus two). The engine counts the watches
// of a formula's clauses before loading them, so the load relocates no
// row.
//
// Growth: `push` appends in place while the row has spare capacity;
// a full row is relocated to the end of the slab with doubled capacity
// (amortized O(1) per push). Relocation leaves the old block as garbage:
// learnt clauses and watch moves make the slab accumulate slack between
// compactions. The slab itself is a GrowBuffer (sat/grow_buffer.h), which
// grows with realloc, so a slab that grows is not resident twice.
//
// Compaction: `compact()` (or `rebuild()` with a filter) rewrites the
// slab with rows in index order and that same headroom, which both frees
// the garbage and restores the CSR layout; the fresh slab is sized
// exactly, garbage left out. The CDCL solver compacts during
// `reduce_db()` garbage collection — the same moment clause refs are
// remapped — and before a solve when the slack ratio is high.
//
// Pointer stability: a `push` to row A may reallocate the slab and
// thereby invalidate raw entry pointers into every other row. Hot loops
// that push while scanning (watch moves during propagation) must re-read
// `data(row)` after each push; the scanned row itself never grows during
// a propagation scan (new watches always go to a different literal), so
// its offset and size stay valid throughout.

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/grow_buffer.h"

namespace symcolor {

template <typename Entry>
class FlatOccPool {
 public:
  /// Reset to `rows` empty rows and an empty slab.
  void init(std::size_t rows) {
    rows_.assign(rows, {});
    slab_.clear();
    live_ = 0;
  }

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::uint32_t size(std::size_t row) const noexcept {
    return rows_[row].size;
  }
  [[nodiscard]] Entry* data(std::size_t row) noexcept {
    return slab_.data() + rows_[row].offset;
  }
  [[nodiscard]] const Entry* data(std::size_t row) const noexcept {
    return slab_.data() + rows_[row].offset;
  }
  [[nodiscard]] std::span<const Entry> row(std::size_t row) const noexcept {
    return {data(row), rows_[row].size};
  }
  [[nodiscard]] std::span<Entry> row(std::size_t row) noexcept {
    return {data(row), rows_[row].size};
  }

  /// Capacity rebuild() and lay_out() give a row of `n` entries: half
  /// again plus two, and none for an empty row.
  [[nodiscard]] static std::uint32_t reserved_capacity(std::uint32_t n) {
    return n == 0 ? 0 : n + n / 2 + 2;
  }

  /// Lay out an empty pool (just init()) for a known fill: row i gets its
  /// own block of reserved_capacity(counts[i]) cells, rows in index order.
  /// That is the layout rebuild() leaves once row i holds counts[i]
  /// entries, so pushing up to counts[i] entries into each row relocates
  /// nothing and leaves no garbage. A row pushed past its count relocates
  /// as usual.
  void lay_out(std::span<const std::uint32_t> counts) {
    assert(counts.size() == rows_.size() && slab_.size() == 0);
    std::size_t total = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      Row& r = rows_[i];
      r.offset = static_cast<std::uint32_t>(total);
      r.capacity = reserved_capacity(counts[i]);
      total += r.capacity;
    }
    slab_.reserve(total);
    slab_.resize(total);
  }

  /// Append to a row; may relocate the row (and reallocate the slab),
  /// invalidating entry pointers into all rows.
  void push(std::size_t row, Entry e) {
    Row& r = rows_[row];
    if (r.size == r.capacity) grow(r);
    slab_[r.offset + r.size++] = e;
    ++live_;
  }

  /// Drop entries past `new_size` (propagation's swap-with-keep tail).
  void truncate(std::size_t row, std::uint32_t new_size) {
    Row& r = rows_[row];
    assert(new_size <= r.size);
    live_ -= r.size - new_size;
    r.size = new_size;
  }

  /// Rewrite the slab with rows in index order, keeping only entries for
  /// which `keep(row_index, entry)` returns true. `keep` may mutate the
  /// entry (ref remapping during GC). Every outstanding entry pointer is
  /// invalidated. Non-empty rows keep ~50% growth headroom
  /// (reserved_capacity()): an exact repack would force the very next push
  /// on every row through the relocation path, which measurably taxes
  /// clause learning right after a reduction. The fresh slab is sized to
  /// the layout the rows would take if `keep` dropped nothing, not to the
  /// old slab, whose relocation garbage would otherwise be carried over
  /// as unused capacity.
  template <typename Keep>
  void rebuild(Keep&& keep) {
    std::size_t bound = 0;
    for (const Row& r : rows_) bound += reserved_capacity(r.size);
    GrowBuffer<Entry> fresh;
    fresh.reserve(bound);
    live_ = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      Row& r = rows_[i];
      const auto begin = static_cast<std::uint32_t>(fresh.size());
      for (std::uint32_t k = 0; k < r.size; ++k) {
        Entry e = slab_[r.offset + k];
        if (keep(i, e)) fresh.push_back(e);
      }
      r.offset = begin;
      r.size = static_cast<std::uint32_t>(fresh.size()) - begin;
      r.capacity = reserved_capacity(r.size);
      fresh.resize(begin + r.capacity);
      live_ += r.size;
    }
    slab_ = std::move(fresh);
  }

  /// Garbage-free CSR layout: rows in index order, zero slack.
  void compact() {
    rebuild([](std::size_t, Entry&) { return true; });
  }

  // ---- occupancy introspection (tests / compaction policy) ----
  /// Entries currently reachable through row headers.
  [[nodiscard]] std::size_t live_entries() const noexcept { return live_; }
  /// Slab cells owned, including relocation garbage and row slack.
  [[nodiscard]] std::size_t slab_slots() const noexcept {
    return slab_.size();
  }
  /// True when more than half the slab is garbage or slack beyond the
  /// structural headroom rebuild() leaves — the solver's cue to compact
  /// outside the regular GC cadence.
  [[nodiscard]] bool sparse() const noexcept {
    return slab_.size() > 2 * live_ + 2 * rows_.size() + 64;
  }

 private:
  struct Row {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  void grow(Row& r) {
    const std::uint32_t new_cap = r.capacity == 0 ? 4 : 2 * r.capacity;
    const auto new_offset = static_cast<std::uint32_t>(slab_.size());
    slab_.resize(slab_.size() + new_cap);
    // The old block (r.capacity cells at r.offset) becomes garbage until
    // the next rebuild()/compact().
    for (std::uint32_t k = 0; k < r.size; ++k) {
      slab_[new_offset + k] = slab_[r.offset + k];
    }
    r.offset = new_offset;
    r.capacity = new_cap;
  }

  GrowBuffer<Entry> slab_;
  std::vector<Row> rows_;
  std::size_t live_ = 0;
};

}  // namespace symcolor
