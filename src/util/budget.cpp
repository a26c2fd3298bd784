#include "util/budget.h"

#include <cmath>
#include <limits>

namespace symcolor {

const char* budget_trip_name(BudgetTrip trip) noexcept {
  switch (trip) {
    case BudgetTrip::None: return "none";
    case BudgetTrip::Deadline: return "deadline";
    case BudgetTrip::Conflicts: return "conflicts";
    case BudgetTrip::Propagations: return "propagations";
    case BudgetTrip::Interrupt: return "interrupt";
  }
  return "none";
}

bool SolveBudget::unlimited() const noexcept {
  for (const SolveBudget* b = this; b != nullptr; b = b->parent_) {
    if (!b->deadline_.unlimited() || b->conflicts_ > 0 ||
        b->propagations_ > 0 ||
        b->interrupted_.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

bool SolveBudget::deadline_expired() const noexcept {
  for (const SolveBudget* b = this; b != nullptr; b = b->parent_) {
    if (b->deadline_.expired()) return true;
  }
  return false;
}

double SolveBudget::remaining_seconds() const noexcept {
  double remaining = std::numeric_limits<double>::infinity();
  for (const SolveBudget* b = this; b != nullptr; b = b->parent_) {
    const double r = b->deadline_.remaining();
    if (r < remaining) remaining = r;
  }
  return remaining;
}

SolveBudget SolveBudget::child(double seconds, std::int64_t conflicts,
                               std::int64_t propagations) const noexcept {
  // Wall clock: the child gets min(requested, chain remaining). When the
  // request is unlimited but an ancestor is not, inherit the remainder so
  // the child's own deadline is armed too (cheap, and keeps deadline()
  // meaningful for callers that only look at the child).
  const double chain_left = remaining_seconds();
  double budget_seconds = seconds > 0.0 ? seconds : chain_left;
  if (budget_seconds > chain_left) budget_seconds = chain_left;
  if (std::isinf(budget_seconds)) budget_seconds = 0.0;  // unlimited

  // Counted budgets: a child request can never exceed the parent's cap,
  // and an uncapped request inherits the parent's cap outright. (Per-call
  // counts reset each solve; a caller that needs "remaining across probes"
  // counts what its probes spent, as minimize() does.)
  auto clamp = [](std::int64_t requested, std::int64_t parent) noexcept {
    if (requested <= 0) return parent > 0 ? parent : std::int64_t{0};
    if (parent > 0 && requested > parent) return parent;
    return requested;
  };
  return SolveBudget(budget_seconds, clamp(conflicts, conflicts_),
                     clamp(propagations, propagations_), this);
}

}  // namespace symcolor
