#include "cnf/formula.h"

#include <algorithm>
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

void Formula::add_clause(Clause clause) {
  for (Lit l : clause) {
    if (!l.valid() || l.var() >= num_vars_) {
      throw std::out_of_range("clause literal out of range");
    }
  }
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  // Tautology check: after sorting, x and ~x are adjacent.
  for (std::size_t i = 0; i + 1 < clause.size(); ++i) {
    if (clause[i].var() == clause[i + 1].var()) return;
  }
  if (clause.empty()) trivially_unsat_ = true;
  clauses_.push_back(std::move(clause));
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
  for (const Clause& clause : clauses_) {
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
