#include "cnf/formula.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

namespace symcolor {

std::int64_t Objective::value(std::span<const LBool> values) const {
  std::int64_t total = 0;
  for (const PbTerm& t : terms) {
    const LBool v = lit_value(values[static_cast<std::size_t>(t.lit.var())],
                              t.lit.negated());
    if (v == LBool::True) total += t.coeff;
  }
  return total;
}

Var Formula::new_vars(int count) {
  if (count < 0) throw std::invalid_argument("negative variable count");
  const Var first = num_vars_;
  num_vars_ += count;
  return first;
}

void Formula::add_clause(std::span<const Lit> lits) {
  for (Lit l : lits) {
    if (!l.valid() || l.var() >= num_vars_) {
      throw std::out_of_range("clause literal out of range");
    }
  }
  const std::size_t start = lits_.size();
  if (lits.size() > std::numeric_limits<std::uint32_t>::max() - start) {
    throw std::length_error("formula literal pool exceeds 2^32 literals");
  }
  if (offsets_.empty()) offsets_.push_back(static_cast<std::uint32_t>(start));
  const Lit* pool = lits_.data();
  if (std::less_equal<>{}(pool, lits.data()) &&
      std::less<>{}(lits.data(), pool + start)) {
    // The clause is already in this pool, which the append may move:
    // grow first, then copy it by position.
    const auto from = static_cast<std::size_t>(lits.data() - pool);
    lits_.resize(start + lits.size());
    std::copy_n(lits_.begin() + static_cast<std::ptrdiff_t>(from),
                lits.size(),
                lits_.begin() + static_cast<std::ptrdiff_t>(start));
  } else {
    lits_.insert(lits_.end(), lits.begin(), lits.end());
  }
  // Normalize the new tail in place; a tautology rolls it back.
  const auto first = lits_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(first, lits_.end());
  lits_.erase(std::unique(first, lits_.end()), lits_.end());
  // Tautology check: after sorting, x and ~x are adjacent.
  for (auto it = first; it + 1 < lits_.end(); ++it) {
    if (it->var() == (it + 1)->var()) {
      lits_.resize(start);
      return;
    }
  }
  if (lits_.size() == start) trivially_unsat_ = true;
  offsets_.push_back(static_cast<std::uint32_t>(lits_.size()));
}

void Formula::add_pb(PbConstraint constraint) {
  for (const PbTerm& t : constraint.terms()) {
    if (!t.lit.valid() || t.lit.var() >= num_vars_) {
      throw std::out_of_range("pb literal out of range");
    }
  }
  if (constraint.is_tautology()) return;
  if (constraint.is_contradiction()) trivially_unsat_ = true;
  pb_constraints_.push_back(std::move(constraint));
}

namespace {
std::vector<PbTerm> unit_terms(const std::vector<Lit>& lits) {
  std::vector<PbTerm> terms;
  terms.reserve(lits.size());
  for (Lit l : lits) terms.push_back({1, l});
  return terms;
}
}  // namespace

void Formula::add_at_least(const std::vector<Lit>& lits, std::int64_t bound) {
  add_pb(PbConstraint::at_least(unit_terms(lits), bound));
}

void Formula::add_at_most(const std::vector<Lit>& lits, std::int64_t bound) {
  add_pb(PbConstraint::at_most(unit_terms(lits), bound));
}

void Formula::add_exactly(const std::vector<Lit>& lits, std::int64_t bound) {
  add_at_least(lits, bound);
  add_at_most(lits, bound);
}

bool Formula::satisfied_by(std::span<const LBool> values) const {
  if (trivially_unsat_) return false;
  for (std::span<const Lit> clause : clauses()) {
    bool sat = false;
    for (Lit l : clause) {
      if (lit_value(values[static_cast<std::size_t>(l.var())], l.negated()) ==
          LBool::True) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  for (const PbConstraint& c : pb_constraints_) {
    if (!c.satisfied_by(values)) return false;
  }
  return true;
}

}  // namespace symcolor
