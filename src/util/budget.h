#pragma once
// SolveBudget — the one way to bound or stop a solve.
//
// A budget bundles every way a caller can bound or preempt a solve:
//   * a wall-clock deadline (seconds),
//   * a conflict budget and a propagation budget (counted per solve call),
//   * an asynchronous interrupt flag, settable from any thread or from a
//     signal handler (it is a single atomic store).
//
// Everywhere in the pipeline a limit of <= 0 means "unlimited", so a
// default-constructed SolveBudget imposes no constraint at all.
//
// Budgets form a parent chain: child() derives a per-probe budget that can
// never exceed what remains of its parent, and interrupt / deadline expiry
// anywhere up the chain preempts every descendant. The chain lets an outer
// run (an optimizer search, a coloring loop, a CLI invocation) hand each
// inner solve a slice while keeping one global kill switch; the parallel
// engine's first-answer stop is the interrupt of one such child. A
// multi-probe search (minimize() in pb/optimizer) counts what its probes
// spend and hands each one a child holding the remainder.
//
// SolveBudget is non-copyable (it owns an atomic and is the identity other
// threads signal through); pass it by const reference. All mutating entry
// points are const and thread-safe so that read-only holders — the CDCL
// loop, a SIGINT handler — can poll and signal concurrently.

#include <atomic>
#include <cstdint>

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

  /// Arm a wall-clock deadline and/or conflict and propagation budgets.
  /// Any argument <= 0 leaves that dimension unlimited.
  explicit SolveBudget(double seconds, std::int64_t conflicts = 0,
                       std::int64_t propagations = 0) noexcept
      : deadline_(seconds),
        conflicts_(conflicts > 0 ? conflicts : 0),
        propagations_(propagations > 0 ? propagations : 0) {}

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
        conflicts_(other.conflicts_),
        propagations_(other.propagations_),
        parent_(other.parent_),
        interrupted_(other.interrupted_.load(std::memory_order_acquire)) {}
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

  /// Conflict / propagation caps for one solve call; 0 = unlimited.
  [[nodiscard]] std::int64_t conflict_budget() const noexcept {
    return conflicts_;
  }
  [[nodiscard]] std::int64_t prop_budget() const noexcept {
    return propagations_;
  }

  /// True when neither this budget nor any ancestor constrains anything.
  [[nodiscard]] bool unlimited() const noexcept;

  /// True when the wall clock has run out here or anywhere up the chain.
  [[nodiscard]] bool deadline_expired() const noexcept;

  /// Seconds left on the tightest deadline in the chain; +inf when every
  /// level is unlimited, clamped at 0 once expired.
  [[nodiscard]] double remaining_seconds() const noexcept;

  /// Combined asynchronous check: Interrupt dominates Deadline; conflict
  /// and propagation budgets are counted by the solver itself and are not
  /// visible here. This is the call sitting on the CDCL poll cadence.
  [[nodiscard]] BudgetTrip poll() const noexcept {
    if (interrupted()) return BudgetTrip::Interrupt;
    if (deadline_expired()) return BudgetTrip::Deadline;
    return BudgetTrip::None;
  }

  /// Derive a per-probe budget that can never exceed this one: the child's
  /// wall clock is clamped to the parent's remaining seconds and its
  /// conflict/propagation caps to the parent's caps (a parent cap applies
  /// even when the child asks for none). The child keeps a pointer back to
  /// the parent, so parent-level interrupts and deadline expiry preempt it;
  /// the parent must therefore outlive the child.
  [[nodiscard]] SolveBudget child(double seconds = 0.0,
                                  std::int64_t conflicts = 0,
                                  std::int64_t propagations = 0) const noexcept;

 private:
  SolveBudget(double seconds, std::int64_t conflicts, std::int64_t propagations,
              const SolveBudget* parent) noexcept
      : SolveBudget(seconds, conflicts, propagations) {
    parent_ = parent;
  }

  Deadline deadline_;
  std::int64_t conflicts_ = 0;
  std::int64_t propagations_ = 0;
  const SolveBudget* parent_ = nullptr;
  mutable std::atomic<bool> interrupted_{false};
};

}  // namespace symcolor
