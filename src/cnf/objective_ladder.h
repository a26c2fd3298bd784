#pragma once
// Objective selector ladder: a CNF counting circuit over the objective
// terms whose output literals turn "objective <= W" into a SINGLE
// retractable assumption — the encoding-layer half of assumption-native
// optimization (pb/optimizer drives one persistent SolverEngine through
// these selectors instead of mutating the formula with permanent
// "objective <= W" PB rows).
//
// Construction: a generalized totalizer (Joshi/Martins/Manquinho lineage;
// the unit-weight case degenerates to the classic Bailleux-Boutsidis
// totalizer). Terms are first normalized like PbConstraint does —
// negative weights flip the literal and shift a constant offset, same-var
// terms merge — then counted by a balanced merge tree. Every node owns
// one output literal O_v per achievable partial sum v with the SOUND
// direction only:
//     sum of the node's terms >= v   implies   O_v,
// via merge clauses (~A_a | ~B_b | C_{a+b}) over the children's value
// pairs plus a per-node ordering chain (O_v -> O_pred(v)), which makes
// the outputs a monotone unary ladder. Assuming ~O_v therefore forces
// objective < v, while leaving the outputs unconstrained (no assumption)
// costs nothing: the reverse implication is deliberately not encoded, so
// any model extends by setting each output to "sum reached v".
//
// One ladder serves every probe: "<= W" for any W is the negation of the
// single output at the smallest achievable value above W, so linear
// strengthening, binary search (both directions!) and core-guided search
// all retract and re-assert bounds without touching the clause database —
// learned clauses survive every probe.
//
// The ladder is built into the Formula BEFORE the solver is constructed
// (the engine's variable count is fixed at construction). Distinct-sum
// sets can explode for adversarial weight patterns, so construction dry-
// runs the value sets first and refuses (ok() == false, formula left
// untouched) past `max_values`; minimize() rejects such an objective with
// std::invalid_argument.

#include <cstdint>
#include <vector>

#include "cnf/formula.h"

namespace symcolor {

class ObjectiveLadder {
 public:
  /// What at_most() asks the caller to do for a given bound.
  struct Bound {
    enum class Kind {
      Free,        ///< bound >= max achievable value: assume nothing
      Assume,      ///< assume `lit` to assert the bound
      Infeasible,  ///< bound < min achievable value: unsatisfiable outright
    };
    Kind kind = Kind::Free;
    Lit lit;  ///< valid iff kind == Assume
  };

  /// A soft view of one normalized objective term for core-guided search:
  /// assuming `assume` says "this term contributes nothing"; violating it
  /// costs `weight`.
  struct SoftTerm {
    std::int64_t weight = 0;
    Lit assume;
  };

  static constexpr std::size_t kDefaultMaxValues = 1 << 16;

  /// Build the ladder for `objective` into `formula` (fresh auxiliary
  /// variables + clauses). When the distinct-sum census would exceed
  /// `max_values`, nothing is added and ok() reports false.
  ObjectiveLadder(Formula* formula, const Objective& objective,
                  std::size_t max_values = kDefaultMaxValues);

  /// False when construction was refused (value census above the cap).
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Objective value with every normalized term false (the constant
  /// offset contributed by negative-weight terms).
  [[nodiscard]] std::int64_t min_value() const noexcept { return offset_; }
  /// Objective value with every normalized term true.
  [[nodiscard]] std::int64_t max_value() const noexcept {
    return offset_ + sum_;
  }

  /// The single assumption asserting "objective <= bound" (in original
  /// objective units). Requires ok().
  [[nodiscard]] Bound at_most(std::int64_t bound) const;

  /// Normalized terms as soft assumptions for core-guided search (always
  /// available, even when the ladder itself was refused).
  [[nodiscard]] const std::vector<SoftTerm>& soft_terms() const noexcept {
    return soft_terms_;
  }

 private:
  bool ok_ = true;
  std::int64_t offset_ = 0;  // constant shift from negative-weight terms
  std::int64_t sum_ = 0;     // sum of normalized (positive) weights
  /// Root outputs: ascending achievable values paired with their O_v.
  std::vector<std::pair<std::int64_t, Lit>> outputs_;
  std::vector<SoftTerm> soft_terms_;
};

}  // namespace symcolor
