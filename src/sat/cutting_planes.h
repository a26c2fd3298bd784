#pragma once
// CuttingPlanes — Galena's native pseudo-Boolean conflict analysis
// (PbAnalysis::CuttingPlanes, sat/cdcl.h). A conflict whose conflicting
// constraint is a PB row is resolved against the reasons on the trail by
// coefficient-scaled addition with saturation and gcd rounding; the
// resolvent is learned as a PB constraint, or as a clause when it
// degenerates to one.
//
// The invariant: the accumulator is a consequence of the constraint
// database (modulo level-0 units) and CONFLICTING under the current
// assignment (slack < 0). Each step resolves it against the reason of the
// latest trail literal it contains, weakened just enough that the scaled
// sum stays conflicting (slack is subadditive under scaled addition),
// until it is assertive below the current level (PB 1UIP).
//
// The analyzer owns the resolvent accumulator and its scratch only. It
// reads the engine through the reference each call takes and leaves the
// activity bumps to the searcher, which owns the activities. Asserting
// the outcome is the searcher's learn_pb, defined in cutting_planes.cpp.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "sat/prop_engine.h"

namespace symcolor {

class CuttingPlanes {
 public:
  using Conflict = PropEngine::Conflict;
  using Reason = PropEngine::Reason;

  /// What analyze() produced. Learned carries either a PB resolvent
  /// (terms + degree) or, when the resolvent degenerates (all saturated
  /// coefficients equal the degree after gcd division), a clause —
  /// including units. Fallback asks the caller to run the clausal
  /// weakening path on the original conflict; Unsat means the resolvent
  /// conflicts at decision level 0.
  enum class Outcome : std::uint8_t { Learned, Fallback, Unsat };
  struct Learned {
    bool is_clause = false;
    std::vector<Lit> clause;    // valid when is_clause
    std::vector<PbTerm> terms;  // valid when !is_clause (desc coeff order)
    std::int64_t degree = 0;
    int backjump = 0;
  };

  /// Size the per-variable accumulator.
  void resize(std::size_t num_vars);

  /// Resolve the conflicting constraint against the reasons on the trail,
  /// weakening reasons just enough to keep the resolvent conflicting,
  /// until the resolvent is assertive below the current decision level.
  /// Overflow-checked throughout; returns Fallback rather than risking an
  /// unsound resolvent.
  Outcome analyze(const PropEngine& e, Conflict conflict, Learned* out);

  /// What the last analyze() drew on, in order, for the searcher's
  /// activity bumps: the conflict row (when it loaded), then each pivot
  /// variable, whose reason(pivot) is the constraint resolved on; and how
  /// many resolution steps completed.
  struct Trace {
    bool loaded_conflict = false;
    std::vector<Var> pivots;
    std::int64_t resolutions = 0;
  };
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

 private:
  /// Load a conflict/reason constraint into the accumulator, applying
  /// level-0 strengthening. Returns false on overflow.
  bool load(const PropEngine& e, Conflict conflict);
  /// Slack of the resolvent under the full current assignment.
  [[nodiscard]] std::int64_t slack_full(const PropEngine& e) const;
  /// True when the resolvent propagates or conflicts at some level below
  /// the current one (the PB generalization of the 1UIP stop condition).
  [[nodiscard]] bool assertive(const PropEngine& e) const;
  /// Weaken every non-false term out of the resolvent and saturate (used
  /// when the walk reaches a decision; keeps the resolvent conflicting).
  bool weaken_nonfalse(const PropEngine& e);
  /// Saturate resolvent coefficients at the degree and divide the whole
  /// resolvent by the gcd of its coefficients (degree rounds up).
  bool saturate_and_divide();
  /// Reduce `reason` (of trail literal l at trail position pos_l) into
  /// reason_/reason_degree_: keep l plus literals falsified strictly
  /// before pos_l, weaken the rest as needed until the planned resolvent
  /// is guaranteed conflicting. On success reason_[0] is l's own term.
  /// Returns false on degenerate reasons (caller falls back).
  bool reduce_reason(const PropEngine& e, Reason reason, Lit l, int pos_l);
  /// Resolve the accumulator with reason_ on `pivot`; false on overflow.
  bool resolve(Var pivot);
  /// The backjump level of an assertive resolvent: the lowest level at
  /// which it still propagates or conflicts.
  [[nodiscard]] int backjump_level(const PropEngine& e);

  // The resolvent is a map var -> (coefficient, literal orientation) held
  // as dense arrays plus the active-var list. A var cancelled to
  // coefficient 0 stays in vars_ (with in_ still set) so a later reason
  // can reintroduce it without duplicate list entries; every iteration
  // skips zero-coefficient vars.
  std::vector<std::int64_t> coef_;  // by var; 0 = absent/cancelled
  std::vector<Lit> lit_;            // by var; the term's literal
  std::vector<char> in_;            // by var; member of vars_
  std::vector<Var> vars_;           // active vars, unordered
  std::int64_t degree_ = 0;
  std::vector<PbTerm> reason_;  // reduced-reason scratch
  std::vector<PbTerm> cands_;   // weakening-candidate scratch
  std::int64_t reason_degree_ = 0;
  // backjump_level() scratch (hoisted: the hot path must not allocate).
  struct BjEnt {
    int lvl;
    std::int64_t coeff;
    bool falsified;
  };
  std::vector<BjEnt> bj_ents_;
  std::vector<std::int64_t> bj_suffix_;

  Trace trace_;
};

}  // namespace symcolor
