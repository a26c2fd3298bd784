#pragma once
// Boolean optimization (0-1 ILP) on top of the solve pipeline —
// assumption-native: every search strategy drives ONE persistent
// SolverEngine whose learned state survives all probes.
//
// The paper's solvers minimize a linear objective over a CNF+PB formula;
// its Section 4.1 sketches two search procedures over the objective
// value. We implement three, all on the same machinery — an objective
// selector ladder (cnf/objective_ladder.h) built once next to the
// formula, which turns "objective <= W" into a single retractable
// assumption:
//
//   * SearchStrategy::Linear — iterative strengthening, SAT-to-UNSAT:
//     solve; on SAT with value W re-solve assuming objective <= W-1;
//     repeat until UNSAT (or until W meets the proven lower bound),
//     proving the last model optimal.
//   * SearchStrategy::Binary — bisect [lower bound, first incumbent - 1].
//     Ladder assumptions let the SAME engine serve both directions of
//     the search, so every learned clause carries over.
//   * SearchStrategy::CoreGuided — MaxSAT-style lower-bound lifting:
//     assume every objective term false and mine disjoint UNSAT cores
//     (SolverEngine::last_core()); each core proves some term in it must
//     be true and lifts the lower bound by its minimum weight, after
//     which a ladder-assumption binary search closes the (often already
//     tight) [lb, ub] gap. UNSAT-heavy workloads — MaxSAT-shaped
//     instances where the optimum sits far below the first incumbent —
//     converge from below instead of crawling down from above.
//
// All strategies reach the same optimum; they differ in probe count and
// in which side of the bound their probes are easy on. A formula without
// an objective degenerates to a single decision query under any strategy.
//
// The SAT-loop colorer (coloring/exact_colorer) is one more caller: its
// CNF K-coloring encoding carries the color-count objective, so "is the
// graph k-colorable?" is a ladder probe like any other and the loop has
// no K-search of its own.
//
// Every loop drives an abstract SolverEngine obtained from
// make_solver_engine, never a concrete solver: setting
// SolverConfig::portfolio_threads > 1 swaps the sequential CDCL backend
// for the clone-based parallel engine (sat/parallel_solver.h) without the
// loops changing shape, and the optima are identical at any thread count.

#include <cstdint>
#include <limits>
#include <vector>

#include "cnf/formula.h"
#include "sat/cdcl.h"
#include "util/budget.h"
#include "util/timer.h"

namespace symcolor {

/// Objective search strategy of minimize(), chosen by every optimization
/// caller (the native PB and SAT-loop colorers in coloring/exact_colorer,
/// the CLI's --search flag).
enum class SearchStrategy { Linear, Binary, CoreGuided };

const char* search_strategy_name(SearchStrategy strategy);

enum class OptStatus {
  Optimal,     ///< best_value proved optimal
  Feasible,    ///< budget ran out with an incumbent; best_value is an
               ///< upper bound (the model is always non-empty here)
  Infeasible,  ///< constraints unsatisfiable
  Unknown,     ///< budget ran out before any model was found
};

struct OptResult {
  OptStatus status = OptStatus::Unknown;
  std::int64_t best_value = 0;  ///< meaningless unless `model` is non-empty
  std::vector<LBool> model;  ///< empty unless a model was found; indexed by
                             ///< the ORIGINAL formula's variables (ladder
                             ///< auxiliaries are stripped)
  SolverStats stats;         ///< cumulative across all probes (one engine)
  /// All-workers view: the engine's aggregated_stats() — equal to `stats`
  /// on a sequential backend, the sum over every portfolio/cube worker on
  /// a parallel one (the honest cost of the run).
  SolverStats agg_stats;
  /// Number of solve() calls the search issued — all against the same
  /// persistent engine; the strategy comparison statistic.
  int probes = 0;
  double seconds = 0.0;
  /// Tightest PROVEN lower bound on the objective from minimize() runs:
  /// the ladder floor, lifted by the caller's lower_hint, by core-guided
  /// mining and by every Unsat bisection probe. Equals best_value when status is Optimal; on a
  /// budgeted Feasible exit the optimum lies in [lower_bound, best_value].
  /// Not meaningful for pure decision queries.
  std::int64_t lower_bound = 0;
  /// Which resource bound cut the run short (None on Optimal/Infeasible).
  BudgetTrip tripped = BudgetTrip::None;
  /// True iff the run ended on a budget rather than a proof — i.e. status
  /// is Feasible or Unknown because `tripped` fired.
  bool budget_exhausted = false;
  [[nodiscard]] bool solved() const noexcept {
    return status == OptStatus::Optimal || status == OptStatus::Infeasible;
  }
};

/// Decision query: satisfiability only, objective ignored. A budgeted
/// exit reports Unknown with `tripped` set (never Feasible with garbage).
OptResult solve_decision(const Formula& formula, const SolverConfig& config,
                         const SolveBudget& budget);

/// Minimize the formula's objective with the given strategy on one
/// persistent engine. The formula is taken by value so a caller that is
/// done with it can move it in instead of paying for a copy. `lower_hint`
/// is a caller-proven lower bound on the objective, folded into
/// OptResult::lower_bound: every strategy reports Optimal as soon as an
/// incumbent meets it, and Binary/CoreGuided bisect from it. The budget
/// covers the WHOLE run: the search counts what its probes spend, hands
/// each probe a child budget holding the unspent remainder of the
/// conflict/propagation caps and runs no probe once they are spent, and
/// interrupt()/deadline preempt between and inside probes. Degradation contract: a budgeted exit keeps the best
/// incumbent (status Feasible) and the tightest proven lower bound; only
/// a run with no incumbent at all reports Unknown. Throws
/// std::invalid_argument when the objective has too many distinct sums
/// for an ObjectiveLadder (cnf/objective_ladder.h).
OptResult minimize(Formula formula, const SolverConfig& config,
                   const SolveBudget& budget, SearchStrategy strategy,
                   std::int64_t lower_hint =
                       std::numeric_limits<std::int64_t>::min());

}  // namespace symcolor
