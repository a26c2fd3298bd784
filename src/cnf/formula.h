#pragma once
// A mixed CNF + pseudo-Boolean formula with an optional linear objective —
// the paper's "0-1 ILP" instance representation (Section 2.3): CNF clauses
// for disjunctive structure, PB constraints for counting structure, and a
// MIN objective over literals.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cnf/literals.h"
#include "cnf/pb_constraint.h"

namespace symcolor {

using Clause = std::vector<Lit>;

/// Linear minimization objective: MIN sum coeff_i * lit_i.
struct Objective {
  std::vector<PbTerm> terms;

  /// Objective value under a complete assignment.
  [[nodiscard]] std::int64_t value(std::span<const LBool> values) const;
};

class Formula {
 public:
  Formula() = default;

  /// Allocate a fresh variable.
  Var new_var() { return num_vars_++; }
  /// Allocate `count` fresh variables; returns the first.
  Var new_vars(int count);

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }

  /// Append a clause. Tautological clauses (l and ~l) are dropped;
  /// duplicate literals are merged. Empty clauses are recorded and make
  /// the formula trivially unsat.
  void add_clause(Clause clause);
  void add_unit(Lit l) { add_clause({l}); }
  /// a -> b, i.e. (~a | b).
  void add_implication(Lit a, Lit b) { add_clause({~a, b}); }

  /// Append a PB constraint (already-normalized tautologies are dropped).
  void add_pb(PbConstraint constraint);
  /// sum(lits) >= bound with unit coefficients.
  void add_at_least(const std::vector<Lit>& lits, std::int64_t bound);
  /// sum(lits) <= bound with unit coefficients.
  void add_at_most(const std::vector<Lit>& lits, std::int64_t bound);
  /// sum(lits) == bound (one >= plus one <=).
  void add_exactly(const std::vector<Lit>& lits, std::int64_t bound);

  void set_objective(Objective objective) { objective_ = std::move(objective); }
  [[nodiscard]] const std::optional<Objective>& objective() const noexcept {
    return objective_;
  }

  [[nodiscard]] std::span<const Clause> clauses() const noexcept {
    return clauses_;
  }
  [[nodiscard]] std::span<const PbConstraint> pb_constraints() const noexcept {
    return pb_constraints_;
  }
  [[nodiscard]] int num_clauses() const noexcept {
    return static_cast<int>(clauses_.size());
  }
  [[nodiscard]] int num_pb() const noexcept {
    return static_cast<int>(pb_constraints_.size());
  }
  /// True when an empty clause or contradictory PB constraint was added.
  [[nodiscard]] bool trivially_unsat() const noexcept { return trivially_unsat_; }

  /// Check a complete assignment against every clause and PB constraint.
  [[nodiscard]] bool satisfied_by(std::span<const LBool> values) const;

 private:
  int num_vars_ = 0;
  std::vector<Clause> clauses_;
  std::vector<PbConstraint> pb_constraints_;
  std::optional<Objective> objective_;
  bool trivially_unsat_ = false;
};

}  // namespace symcolor
