#pragma once
// The library's main entry point: optimal graph coloring by reduction to
// 0-1 ILP with configurable symmetry breaking — the full experimental
// pipeline of the paper in one call.
//
//   graph --encode(K, instance-independent SBPs)--> 0-1 ILP formula
//         --[optional: Shatter instance-dependent SBPs]-->
//         --solver personality (PBS II / Galena / Pueblo / generic ILP)-->
//         minimum-coloring model --> per-vertex colors.

#include <optional>
#include <string>
#include <vector>

#include "coloring/encoder.h"
#include "pb/generic_ilp.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "symmetry/shatter.h"

namespace symcolor {

struct ColoringOptions {
  /// Color bound K of the encoding (paper uses 20 and 30). A graph whose
  /// chromatic number exceeds this is reported Infeasible.
  int max_colors = 20;
  /// Instance-independent SBPs added during formulation.
  SbpOptions sbps;
  /// Run the Shatter flow (detect + lex-leader SBPs) before solving.
  bool instance_dependent_sbps = false;
  /// Truncate lex-leader chains (0 = full support).
  int sbp_max_support = 0;
  SolverKind solver = SolverKind::PbsII;
  /// Per-instance wall budget in seconds (0 = unlimited), covering
  /// symmetry detection plus solving.
  double time_budget_seconds = 0.0;
  /// Objective search strategy (pb/optimizer.h): linear strengthening,
  /// binary search, or core-guided lower-bound lifting — all three run on
  /// one persistent engine and reach the same optimum.
  SearchStrategy search = SearchStrategy::Linear;
  /// Run the pre-solve simplifier (root propagation, pure literals,
  /// subsumption) after SBPs are in place.
  bool presimplify = false;
  /// Parallel workers inside every CDCL solve (sat/parallel_solver.h);
  /// 1 = the plain sequential engine. The reported optimum is identical
  /// at any thread count. Ignored by SolverKind::GenericIlp.
  int threads = 1;
  /// > 0 switches the parallel engine to its cube-and-conquer schedule:
  /// the search space is split into assumption cubes of up to this depth
  /// and dealt to `threads` workers. Answers stay exact; 0 = off.
  int cube_depth = 0;
  /// Compat residue, read by nothing in src/: only suitebench's
  /// workloads.cpp reads it (deleted by ROADMAP item 2's [benchmark] PR).
  InprocessMode inprocess = InprocessMode::Off;
  /// Chronological-backtracking threshold of every CDCL engine
  /// (SolverConfig::chrono_threshold): < 0 keeps the solver profile's
  /// default, 0 disables, > 0 overrides the backjump-distance cutoff.
  /// Answers are identical at every setting. Ignored by GenericIlp.
  std::int64_t chrono_threshold = -1;
  /// Whole-pipeline conflict / propagation budgets across all CDCL probes
  /// (<= 0 = unlimited; ignored by SolverKind::GenericIlp, whose search
  /// has no comparable counters).
  std::int64_t conflict_budget = 0;
  std::int64_t prop_budget = 0;
  /// Optional external budget (not owned; must outlive the call). The
  /// pipeline runs under a child of it: the caller's deadline, counted
  /// caps, and async interrupt() all preempt the run. The per-run knobs
  /// above still apply on top (tightest wins).
  const SolveBudget* budget = nullptr;
};

struct ColoringOutcome {
  /// Optimal: `num_colors` is the chromatic number (within max_colors).
  /// Infeasible: chromatic number exceeds max_colors.
  /// Feasible: timeout with a valid (not proved optimal) coloring.
  /// Unknown: timeout without any coloring.
  OptStatus status = OptStatus::Unknown;
  int num_colors = -1;
  std::vector<int> coloring;  ///< per-vertex colors, empty unless found
  /// Tightest PROVEN lower bound on the objective (optimization runs):
  /// equals num_colors when Optimal; on a budgeted Feasible exit the
  /// chromatic number lies in [lower_bound, num_colors].
  std::int64_t lower_bound = 0;
  /// Which resource bound cut the run short (None on a proof), and
  /// whether the exit was budget-driven rather than a proof.
  BudgetTrip tripped = BudgetTrip::None;
  bool budget_exhausted = false;

  // Pipeline statistics.
  int formula_vars = 0;
  int formula_clauses = 0;
  int formula_pb = 0;
  std::optional<SymmetryInfo> symmetry;  ///< set when Shatter ran
  int inst_dep_sbp_clauses = 0;
  SolverStats solver_stats;
  /// All-workers sum (engine aggregated_stats()); equals solver_stats on
  /// a sequential run, the whole pool's work on portfolio/cube runs.
  SolverStats solver_stats_all;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;

  [[nodiscard]] bool solved() const noexcept {
    return status == OptStatus::Optimal || status == OptStatus::Infeasible;
  }
};

/// Minimize the number of colors of `graph` under `options`.
ColoringOutcome solve_coloring(const Graph& graph,
                               const ColoringOptions& options = {});

/// Decision query: is `graph` colorable with at most `options.max_colors`
/// colors? Uses the same pipeline without an objective.
ColoringOutcome solve_k_coloring(const Graph& graph,
                                 const ColoringOptions& options = {});

}  // namespace symcolor
