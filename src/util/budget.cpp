#include "util/budget.h"

#include <algorithm>
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

void SolveBudget::charge(std::int64_t conflicts,
                         std::int64_t propagations) const noexcept {
  for (const SolveBudget* b = this; b != nullptr; b = b->parent_) {
    b->spent_conflicts_ += conflicts;
    b->spent_propagations_ += propagations;
  }
}

std::int64_t SolveBudget::left(
    std::int64_t SolveBudget::*cap,
    std::atomic<std::int64_t> SolveBudget::*spent) const noexcept {
  std::int64_t left = kUncapped;
  for (const SolveBudget* b = this; b != nullptr; b = b->parent_) {
    if (b->*cap > 0) left = std::min(left, b->*cap - (b->*spent).load());
  }
  return std::max<std::int64_t>(left, 0);
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

}  // namespace symcolor
