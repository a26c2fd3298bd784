#pragma once
// SolveBudget — the one way to bound or stop a solve.
//
// A budget bundles every way a caller can bound or preempt a solve:
//   * a wall-clock deadline (seconds),
//   * a conflict cap and a propagation cap, counted against what the
//     solves under this budget and its descendants have spent,
//   * an asynchronous interrupt flag, settable from any thread or from a
//     signal handler (it is a single atomic store).
//
// Everywhere in the pipeline a limit of <= 0 means "unlimited", so a
// default-constructed SolveBudget imposes no constraint at all.
//
// Budgets form a parent chain. child() derives a budget whose own limits
// apply on top of every ancestor's: interrupt, deadline expiry or a spent
// cap anywhere up the chain preempts every descendant. The chain lets an
// outer run (an optimizer search, a coloring loop, a CLI invocation) hand
// each inner solve a slice while keeping one global kill switch; the
// parallel engine's first-answer stop is the interrupt of one such child.
//
// Counted caps are a run-wide ledger: the CDCL engine charges what it
// spends (at its poll cadence and on exit) to its budget and every
// ancestor, so a cap bounds the sum of all work under it — every probe of
// a minimize() run, the parallel engine's warmup and every cube slice its
// workers solve. The lookahead probes of cube generation (sat/cubes.h)
// are not charged.
//
// SolveBudget is non-copyable (it owns atomics and is the identity other
// threads signal through); pass it by const reference. All mutating entry
// points are const and thread-safe so that read-only holders — the CDCL
// loop, a SIGINT handler — can poll, charge and signal concurrently.

#include <atomic>
#include <cstdint>
#include <limits>

#include "util/timer.h"

namespace symcolor {

/// Which resource bound ended a solve early. `None` means the solve ran to
/// a definitive answer (or has not run yet).
enum class BudgetTrip : std::uint8_t {
  None,
  Deadline,
  Conflicts,
  Propagations,
  Interrupt,
};

/// Short stable name for logs and stats output ("none", "deadline", ...).
[[nodiscard]] const char* budget_trip_name(BudgetTrip trip) noexcept;

class SolveBudget {
 public:
  /// No limits, no parent.
  SolveBudget() noexcept = default;

  /// conflicts_left() / propagations_left() when nothing caps the count.
  static constexpr std::int64_t kUncapped =
      std::numeric_limits<std::int64_t>::max();

  /// Arm a wall-clock deadline and/or conflict and propagation caps.
  /// Any argument <= 0 leaves that dimension unlimited.
  explicit SolveBudget(double seconds, std::int64_t conflicts = 0,
                       std::int64_t propagations = 0) noexcept
      : deadline_(seconds),
        conflict_cap_(conflicts > 0 ? conflicts : 0),
        prop_cap_(propagations > 0 ? propagations : 0) {}

  /// A SolveBudget with only the wall clock armed; the elapsed time
  /// already consumed by the deadline carries over. Compat residue: only
  /// suitebench's native_traced still converts a Deadline (ROADMAP item
  /// 1c's [benchmark] PR deletes this constructor).
  SolveBudget(const Deadline& deadline) noexcept  // NOLINT(google-explicit-constructor)
      : deadline_(deadline) {}

  SolveBudget(const SolveBudget&) = delete;
  SolveBudget& operator=(const SolveBudget&) = delete;
  SolveBudget(SolveBudget&& other) noexcept
      : deadline_(other.deadline_),
        conflict_cap_(other.conflict_cap_),
        prop_cap_(other.prop_cap_),
        parent_(other.parent_),
        interrupted_(other.interrupted_.load(std::memory_order_acquire)),
        spent_conflicts_(other.spent_conflicts_.load()),
        spent_propagations_(other.spent_propagations_.load()) {}
  SolveBudget& operator=(SolveBudget&&) = delete;

  /// Request asynchronous preemption. Safe from any thread and from signal
  /// handlers (a single lock-free atomic store); const so that read-only
  /// holders of the budget can still signal through it.
  ///
  /// The flag is STICKY by design: a solve never clears it, so a flag
  /// still set from a previous solve preempts the next one at its entry
  /// poll. That is load-bearing — a run-wide kill switch (SIGINT, a
  /// service drain) must stop every later solve sharing the budget, not
  /// just the one that happened to be in flight. A caller that meant the
  /// interrupt for a single solve and wants to reuse the same budget must
  /// re-arm it explicitly with clear_interrupt() between solves.
  void interrupt() const noexcept {
    interrupted_.store(true, std::memory_order_release);
  }

  /// Re-arm after an interrupt so the same budget can drive another solve
  /// (the owner's half of the sticky-interrupt contract above).
  /// Does not touch ancestors: a parent-level interrupt stays in force.
  void clear_interrupt() const noexcept {
    interrupted_.store(false, std::memory_order_release);
  }

  /// True when this budget or any ancestor has been interrupted.
  [[nodiscard]] bool interrupted() const noexcept {
    for (const SolveBudget* b = this; b != nullptr; b = b->parent_) {
      if (b->interrupted_.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// The wall-clock component of this budget alone (ancestors excluded);
  /// use deadline_expired() / remaining_seconds() for chain-aware checks.
  /// Compat residue: only suitebench's native_traced reads it (ROADMAP
  /// item 1c's [benchmark] PR deletes it).
  [[nodiscard]] const Deadline& deadline() const noexcept { return deadline_; }

  /// Record work spent under this budget here and at every ancestor.
  void charge(std::int64_t conflicts, std::int64_t propagations) const noexcept;

  /// What is left of the tightest conflict / propagation cap in the chain
  /// (min of cap - spent, clamped at 0); kUncapped when none is set.
  [[nodiscard]] std::int64_t conflicts_left() const noexcept {
    return left(&SolveBudget::conflict_cap_, &SolveBudget::spent_conflicts_);
  }
  [[nodiscard]] std::int64_t propagations_left() const noexcept {
    return left(&SolveBudget::prop_cap_, &SolveBudget::spent_propagations_);
  }

  /// True when the wall clock has run out here or anywhere up the chain.
  [[nodiscard]] bool deadline_expired() const noexcept;

  /// Seconds left on the tightest deadline in the chain; +inf when every
  /// level is unlimited, clamped at 0 once expired.
  [[nodiscard]] double remaining_seconds() const noexcept;

  /// Combined check, in priority order: Interrupt, Deadline, then a spent
  /// conflict cap, then a spent propagation cap, each anywhere up the
  /// chain. This is the call sitting on the CDCL poll cadence.
  [[nodiscard]] BudgetTrip poll() const noexcept {
    if (interrupted()) return BudgetTrip::Interrupt;
    if (deadline_expired()) return BudgetTrip::Deadline;
    if (conflicts_left() == 0) return BudgetTrip::Conflicts;
    if (propagations_left() == 0) return BudgetTrip::Propagations;
    return BudgetTrip::None;
  }

  /// Derive a budget that adds its own limits to this one's. The child
  /// keeps a pointer back to the parent, so parent-level interrupts,
  /// deadline expiry and spent caps preempt it (the chain walks above)
  /// and its charges reach the parent; the parent must therefore outlive
  /// the child.
  [[nodiscard]] SolveBudget child(
      double seconds = 0.0, std::int64_t conflicts = 0,
      std::int64_t propagations = 0) const noexcept {
    return SolveBudget(seconds, conflicts, propagations, this);
  }

 private:
  SolveBudget(double seconds, std::int64_t conflicts, std::int64_t propagations,
              const SolveBudget* parent) noexcept
      : SolveBudget(seconds, conflicts, propagations) {
    parent_ = parent;
  }

  /// conflicts_left() / propagations_left() over one counted dimension.
  [[nodiscard]] std::int64_t left(std::int64_t SolveBudget::*cap,
      std::atomic<std::int64_t> SolveBudget::*spent) const noexcept;

  Deadline deadline_;
  std::int64_t conflict_cap_ = 0;
  std::int64_t prop_cap_ = 0;
  const SolveBudget* parent_ = nullptr;
  mutable std::atomic<bool> interrupted_{false};
  mutable std::atomic<std::int64_t> spent_conflicts_{0};
  mutable std::atomic<std::int64_t> spent_propagations_{0};
};

}  // namespace symcolor
