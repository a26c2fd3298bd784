#pragma once
// Contiguous clause storage for the CDCL engine — a MiniSat-style arena.
//
// Every clause of three or more literals lives in one flat buffer of
// 32-bit words as a
//     [header | activity | lit0 lit1 ... litN-1]
// record and is addressed by a `ClauseRef`: the word offset of its header.
// Binary clauses have no record: the engine stores each as two implicit
// watch entries (sat/prop_engine.h), so a record holds >= 3 literals.
// Propagation therefore walks a single allocation in address order instead
// of chasing per-clause heap pointers, and a watcher dereference costs one
// predictable cache line.
//
// The buffer is a GrowBuffer (sat/grow_buffer.h), grown by realloc like
// MiniSat's RegionAllocator. Learnt clauses are appended for the whole
// search, so the arena is often the engine's largest buffer; a vector's
// grow would hold the old and the new block at once (an 8.4 MB and a
// 16.8 MB block on DSJC125.9's SAT loop), where realloc remaps the pages
// of an mmapped block.
//
// Header word layout (low to high bits):
//   bit 0       learnt flag
//   bit 1       deleted flag (set between mark and sweep of a collection)
//   bit 2       relocated flag (set while a collection is in flight)
//   bits 3..26  literal count (clauses are capped at ~16.7M literals)
//   bit 27      "used" flag — set when a learnt clause participates in
//               conflict analysis, cleared by each reduce_db() sweep;
//               mid-tier clauses survive a reduction only while set
//   bits 28..31 LBD (literal block distance — the glue level measured
//               when the clause was learnt, improved monotonically when
//               the clause is touched in conflict analysis). Saturates
//               at 15, which is lossless for retention decisions: the
//               tier thresholds sit far below the cap and anything above
//               them is local-tier regardless of magnitude.
// Packing the search-management metadata into the header keeps clause
// records at the minimal 2 + size words, which matters: propagation
// throughput is memory-bound on large instances and an extra header word
// costs measurable cache traffic. Problem clauses leave used/LBD at 0.
//
// The second word holds the clause activity as raw float bits; during
// garbage collection it is repurposed as the forwarding reference of a
// relocated clause (the activity has already been copied to the new arena
// by then).
//
// ClauseRef invariants:
//   * refs are dense word offsets; `next()` steps a ref to the following
//     clause, so `for (cr = 0; cr != end_ref(); cr = next(cr))` scans every
//     record in layout order,
//   * refs are stable between collections — any collection invalidates all
//     outstanding refs, and the owner must remap watches/reasons through
//     `forward()` before touching the arena again,
//   * kInvalidClauseRef never addresses a clause.
//
// Collection protocol (driven by CdclSolver::garbage_collect):
//   1. mark: set_deleted() on every clause to drop,
//   2. sweep: scan refs in order, relocate() survivors into a fresh arena,
//   3. remap: rewrite every stored ref via relocated()/forward(),
//   4. swap the arenas.

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>

#include "cnf/literals.h"
#include "sat/grow_buffer.h"

namespace symcolor {

/// Word offset of a clause record inside the arena.
using ClauseRef = std::uint32_t;
constexpr ClauseRef kInvalidClauseRef = 0xFFFFFFFFu;

class ClauseArena {
 public:
  /// Append a clause record; returns its ref. Refs stay valid until the
  /// next collection.
  ClauseRef alloc(std::span<const Lit> lits, bool learnt) {
    assert(lits.size() >= 3);
    // The header holds a 24-bit literal count; an oversized clause would
    // silently spill into the used/LBD bits in a Release build, so fail
    // fast even with asserts compiled out. The cap is not reachable in
    // practice: a 16.7M-literal clause alone would occupy 64 MB of arena.
    if (lits.size() > kSizeMask) {
      throw std::length_error("ClauseArena: clause exceeds 2^24-1 literals");
    }
    // Keep refs comfortably below kInvalidClauseRef (and leave the top
    // bit free for future tagging schemes): 8 GiB of clauses is the cap.
    assert(mem_.size() < (1u << 31));
    const auto cr = static_cast<ClauseRef>(mem_.size());
    mem_.push_back((static_cast<std::uint32_t>(lits.size()) << kSizeShift) |
                   (learnt ? kLearntBit : 0u));
    mem_.push_back(0u);  // activity = 0.0f
    for (const Lit l : lits) {
      mem_.push_back(static_cast<std::uint32_t>(l.code()));
    }
    ++live_clauses_;
    return cr;
  }

  [[nodiscard]] int size(ClauseRef cr) const {
    return static_cast<int>((header(cr) >> kSizeShift) & kSizeMask);
  }
  [[nodiscard]] bool learnt(ClauseRef cr) const {
    return (header(cr) & kLearntBit) != 0;
  }
  [[nodiscard]] bool deleted(ClauseRef cr) const {
    return (header(cr) & kDeletedBit) != 0;
  }
  void set_deleted(ClauseRef cr) {
    assert(!deleted(cr));
    mem_[cr] |= kDeletedBit;
    --live_clauses_;
  }

  // ---- LBD / tier metadata (header bits) ----
  [[nodiscard]] int lbd(ClauseRef cr) const {
    return static_cast<int>(header(cr) >> kLbdShift);
  }
  void set_lbd(ClauseRef cr, int lbd) {
    auto clamped = static_cast<std::uint32_t>(lbd);
    if (clamped > kLbdMax) clamped = kLbdMax;
    mem_[cr] = (mem_[cr] & ~(kLbdMax << kLbdShift)) | (clamped << kLbdShift);
  }
  [[nodiscard]] bool used(ClauseRef cr) const {
    return (header(cr) & kUsedBit) != 0;
  }
  void set_used(ClauseRef cr) { mem_[cr] |= kUsedBit; }
  void clear_used(ClauseRef cr) { mem_[cr] &= ~kUsedBit; }

  [[nodiscard]] float activity(ClauseRef cr) const {
    float a;
    std::memcpy(&a, &mem_[cr + 1], sizeof(a));
    return a;
  }
  void set_activity(ClauseRef cr, float a) {
    std::memcpy(&mem_[cr + 1], &a, sizeof(a));
  }

  [[nodiscard]] Lit lit(ClauseRef cr, int i) const {
    return Lit::from_code(static_cast<int>(mem_[cr + kHeaderWords +
                                                static_cast<ClauseRef>(i)]));
  }
  /// Raw literal codes — the propagation hot loop swaps watches in place.
  [[nodiscard]] std::uint32_t* lit_codes(ClauseRef cr) {
    return mem_.data() + cr + kHeaderWords;
  }
  [[nodiscard]] const std::uint32_t* lit_codes(ClauseRef cr) const {
    return mem_.data() + cr + kHeaderWords;
  }

  // ---- layout-order iteration ----
  [[nodiscard]] ClauseRef end_ref() const {
    return static_cast<ClauseRef>(mem_.size());
  }
  [[nodiscard]] ClauseRef next(ClauseRef cr) const {
    return cr + kHeaderWords + static_cast<ClauseRef>(size(cr));
  }

  // ---- garbage collection ----
  /// Copy a live clause into `to`; marks this record relocated and stores
  /// the forwarding ref. Idempotent per record within one collection.
  ClauseRef relocate(ClauseRef cr, ClauseArena* to) {
    assert(!deleted(cr));
    if (relocated(cr)) return forward(cr);
    const int n = size(cr);
    const auto ncr = static_cast<ClauseRef>(to->mem_.size());
    to->mem_.push_back(mem_[cr] & ~kDeletedBit);
    to->mem_.push_back(mem_[cr + 1]);
    const std::uint32_t* codes = lit_codes(cr);
    to->mem_.append(codes, static_cast<std::size_t>(n));
    ++to->live_clauses_;
    mem_[cr] |= kRelocatedBit;
    mem_[cr + 1] = ncr;
    return ncr;
  }
  [[nodiscard]] bool relocated(ClauseRef cr) const {
    return (header(cr) & kRelocatedBit) != 0;
  }
  [[nodiscard]] ClauseRef forward(ClauseRef cr) const {
    assert(relocated(cr));
    return mem_[cr + 1];
  }

  void reserve(std::size_t words) { mem_.reserve(words); }
  [[nodiscard]] std::size_t words() const noexcept { return mem_.size(); }
  [[nodiscard]] std::int64_t live_clauses() const noexcept {
    return live_clauses_;
  }

 private:
  static constexpr std::uint32_t kLearntBit = 1u << 0;
  static constexpr std::uint32_t kDeletedBit = 1u << 1;
  static constexpr std::uint32_t kRelocatedBit = 1u << 2;
  static constexpr int kSizeShift = 3;
  static constexpr std::uint32_t kSizeMask = 0xFFFFFFu;
  static constexpr std::uint32_t kUsedBit = 1u << 27;
  static constexpr int kLbdShift = 28;
  static constexpr std::uint32_t kLbdMax = 0xFu;
  static constexpr ClauseRef kHeaderWords = 2;

  [[nodiscard]] std::uint32_t header(ClauseRef cr) const { return mem_[cr]; }

  GrowBuffer<std::uint32_t> mem_;
  std::int64_t live_clauses_ = 0;
};

}  // namespace symcolor
