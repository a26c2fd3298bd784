#include "pb/generic_ilp.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <vector>

namespace symcolor {
namespace {

/// Depth-first branch and bound without learning. Clause propagation uses
/// per-clause non-false counters (no watched literals — generic solvers
/// pay for every constraint on every assignment, which is exactly the
/// behaviour we want to model for the SBP-overhead experiments).
class BnbSearch {
 public:
  BnbSearch(const Formula& formula, const SolveBudget& budget)
      : budget_(budget), num_vars_(formula.num_vars()) {
    values_.assign(static_cast<std::size_t>(num_vars_), LBool::Undef);
    occurrences_.assign(static_cast<std::size_t>(2 * num_vars_), {});
    occurrence_count_.assign(static_cast<std::size_t>(num_vars_), 0);

    for (std::span<const Lit> clause : formula.clauses()) add_row(clause);
    for (const PbConstraint& pb : formula.pb_constraints()) {
      // The row representation assumes unit coefficients. Every constraint
      // this library emits is a cardinality constraint after
      // normalization; reject anything else loudly rather than mis-solve.
      if (!pb.is_cardinality()) {
        throw std::invalid_argument(
            "generic_ilp: non-cardinality PB constraints unsupported");
      }
      std::vector<Lit> lits;
      for (const PbTerm& t : pb.terms()) lits.push_back(t.lit);
      add_row(lits, pb.bound(), &pb);
    }

    if (formula.objective()) {
      objective_terms_ = formula.objective()->terms;
      for (const PbTerm& t : objective_terms_) {
        objective_upper_ += t.coeff;
      }
      obj_coeff_.assign(static_cast<std::size_t>(num_vars_), 0);
      obj_negated_.assign(static_cast<std::size_t>(num_vars_), 0);
      for (const PbTerm& t : objective_terms_) {
        obj_coeff_[static_cast<std::size_t>(t.lit.var())] = t.coeff;
        obj_negated_[static_cast<std::size_t>(t.lit.var())] =
            t.lit.negated() ? 1 : 0;
      }
      has_objective_ = true;
    }

    // Static branching order: most constrained first. SBPs added to the
    // formula shift these counts — deliberately.
    branch_order_.resize(static_cast<std::size_t>(num_vars_));
    std::iota(branch_order_.begin(), branch_order_.end(), 0);
    std::stable_sort(branch_order_.begin(), branch_order_.end(),
                     [&](Var a, Var b) {
                       return occurrence_count_[static_cast<std::size_t>(a)] >
                              occurrence_count_[static_cast<std::size_t>(b)];
                     });
  }

  OptResult run() {
    OptResult result;
    Timer timer;
    incumbent_ = objective_upper_ + 1;
    if (!root_propagate()) {
      result.status = OptStatus::Infeasible;
      result.seconds = timer.seconds();
      result.stats = stats_;
      return result;
    }
    const bool complete = search(0);
    result.stats = stats_;
    result.seconds = timer.seconds();
    if (best_model_.empty()) {
      result.status = complete ? OptStatus::Infeasible : OptStatus::Unknown;
    } else {
      result.status = complete ? OptStatus::Optimal : OptStatus::Feasible;
      result.best_value = incumbent_;
      result.model = best_model_;
      if (complete) result.lower_bound = incumbent_;
    }
    if (!complete) {
      // The exhaustive DFS was cut short: record what preempted it. (The
      // condition that stopped search() still holds here.)
      result.tripped = budget_.poll();
      result.budget_exhausted = true;
    }
    return result;
  }

 private:
  // One linear row: sum of listed literals >= bound (clauses have bound 1).
  struct Row {
    std::vector<Lit> lits;
    std::int64_t bound = 1;
    std::int64_t slack = 0;  // non-false count minus bound
  };
  struct Occ {
    int row = -1;
  };

  void add_row(std::span<const Lit> lits, std::int64_t bound = 1,
               const PbConstraint* pb = nullptr) {
    Row row;
    row.lits.assign(lits.begin(), lits.end());
    row.bound = bound;
    row.slack = static_cast<std::int64_t>(lits.size()) - bound;
    (void)pb;
    const int index = static_cast<int>(rows_.size());
    for (const Lit l : lits) {
      occurrences_[static_cast<std::size_t>(l.code())].push_back({index});
      ++occurrence_count_[static_cast<std::size_t>(l.var())];
    }
    rows_.push_back(std::move(row));
  }

  [[nodiscard]] LBool value(Lit l) const noexcept {
    return lit_value(values_[static_cast<std::size_t>(l.var())], l.negated());
  }

  /// Assign l true; update row slacks; queue for propagation.
  bool assign(Lit l) {
    const auto v = static_cast<std::size_t>(l.var());
    if (values_[v] != LBool::Undef) return value(l) == LBool::True;
    values_[v] = lbool_of(!l.negated());
    trail_.push_back(l);
    if (has_objective_ && obj_coeff_[v] != 0) {
      const bool counts = (obj_negated_[v] != 0) == l.negated();
      if (counts) objective_now_ += obj_coeff_[v];
    }
    const Lit falsified = ~l;
    for (const Occ occ : occurrences_[static_cast<std::size_t>(falsified.code())]) {
      Row& row = rows_[static_cast<std::size_t>(occ.row)];
      if (--row.slack < 0) {
        conflict_ = true;
      }
    }
    return !conflict_;
  }

  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const Lit l = trail_.back();
      trail_.pop_back();
      const auto v = static_cast<std::size_t>(l.var());
      if (has_objective_ && obj_coeff_[v] != 0) {
        const bool counts = (obj_negated_[v] != 0) == l.negated();
        if (counts) objective_now_ -= obj_coeff_[v];
      }
      const Lit falsified = ~l;
      for (const Occ occ :
           occurrences_[static_cast<std::size_t>(falsified.code())]) {
        ++rows_[static_cast<std::size_t>(occ.row)].slack;
      }
      values_[v] = LBool::Undef;
    }
    conflict_ = false;
  }

  /// Exhaustive unit propagation: any row whose slack equals 0 forces all
  /// its unassigned literals true. Quadratic-ish rescans — generic-solver
  /// flavoured on purpose (cost grows with every added constraint).
  bool propagate_from(std::size_t trail_start) {
    std::size_t head = trail_start;
    while (head < trail_.size()) {
      if (conflict_) return false;
      const Lit p = trail_[head++];
      ++stats_.propagations;
      const Lit falsified = ~p;
      for (const Occ occ :
           occurrences_[static_cast<std::size_t>(falsified.code())]) {
        Row& row = rows_[static_cast<std::size_t>(occ.row)];
        if (row.slack < 0) {
          conflict_ = true;
          return false;
        }
        if (row.slack == 0) {
          for (const Lit l : row.lits) {
            if (value(l) == LBool::Undef) {
              if (!assign(l)) return false;
            }
          }
        }
      }
    }
    return !conflict_;
  }

  bool root_propagate() {
    // Rows that are unit (or violated) from the start.
    for (Row& row : rows_) {
      if (row.slack < 0) return false;
      if (row.slack == 0) {
        for (const Lit l : row.lits) {
          if (value(l) == LBool::Undef && !assign(l)) return false;
        }
      }
    }
    return propagate_from(0);
  }

  [[nodiscard]] Var next_branch_var() const {
    for (const Var v : branch_order_) {
      if (values_[static_cast<std::size_t>(v)] == LBool::Undef) return v;
    }
    return kNoVar;
  }

  /// Returns true if the subtree was exhausted (false on a budget trip).
  bool search(int depth) {
    if ((++stats_.decisions & 0x3FF) == 0 &&
        budget_.poll() != BudgetTrip::None) {
      return false;
    }
    if (has_objective_ && objective_now_ >= incumbent_) return true;  // bound

    const Var v = next_branch_var();
    if (v == kNoVar) {
      // Complete assignment: candidate solution.
      if (!has_objective_) {
        incumbent_ = 0;
        best_model_ = values_;
        found_without_objective_ = true;
        return true;
      }
      if (objective_now_ < incumbent_) {
        incumbent_ = objective_now_;
        best_model_ = values_;
      }
      return true;
    }

    // Value order: objective literals branch "cheap direction" first; all
    // other variables branch true first (first-fit), which on coloring
    // encodings greedily builds an incumbent quickly.
    const bool is_obj = has_objective_ && obj_coeff_[static_cast<std::size_t>(v)] != 0;
    const bool first_true = is_obj ? (obj_negated_[static_cast<std::size_t>(v)] != 0)
                                   : true;
    for (int branch = 0; branch < 2; ++branch) {
      const bool try_true = (branch == 0) ? first_true : !first_true;
      const std::size_t mark = trail_.size();
      if (assign(Lit(v, !try_true)) && propagate_from(mark)) {
        if (!search(depth + 1)) return false;
        if (found_without_objective_) return true;  // decision mode: stop
      } else {
        ++stats_.conflicts;
      }
      undo_to(mark);
    }
    return true;
  }

  const SolveBudget& budget_;
  int num_vars_;
  std::vector<Row> rows_;
  std::vector<std::vector<Occ>> occurrences_;
  std::vector<int> occurrence_count_;
  std::vector<LBool> values_;
  std::vector<Lit> trail_;
  std::vector<Var> branch_order_;

  bool has_objective_ = false;
  std::vector<PbTerm> objective_terms_;
  std::vector<std::int64_t> obj_coeff_;
  std::vector<char> obj_negated_;
  std::int64_t objective_upper_ = 0;
  std::int64_t objective_now_ = 0;
  std::int64_t incumbent_ = 0;
  std::vector<LBool> best_model_;
  bool found_without_objective_ = false;
  bool conflict_ = false;

  SolverStats stats_;
};

}  // namespace

OptResult solve_generic_ilp(const Formula& formula,
                            const SolveBudget& budget) {
  if (formula.trivially_unsat()) {
    OptResult result;
    result.status = OptStatus::Infeasible;
    return result;
  }
  BnbSearch search(formula, budget);
  return search.run();
}

}  // namespace symcolor
