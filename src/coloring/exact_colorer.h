#pragma once
// The library's entry points: exact graph coloring by reduction to 0-1
// ILP or CNF with configurable symmetry breaking, the paper's whole
// experimental pipeline in one call. One driver runs all three, stage by
// stage under one SolveBudget; each entry point picks its plan:
//
//   stage       solve_coloring, solve_k_coloring  solve_coloring_sat_loop
//   1 bounds    -                                 DSATUR + capped max_clique;
//                                                 meeting bounds end the run
//   2 encode    0-1 ILP at K = max_colors         CNF at the DSATUR bound,
//               (+ MIN sum_j y(j) if minimizing)  NU, clique pinned, + MIN
//   3 symmetry  [Shatter]                         -
//   4 solve     minimize / solve_decision /       minimize from the clique
//               generic ILP
//   5 decode    per-vertex colors, checked proper and against the objective
//
// The SAT loop is the paper's Section 2.3 alternative, "repeatedly solving
// instances of the K-coloring using a SAT solver, with the value of K
// being updated after each call", bounds first as in Section 4.1.
// minimize() answers each K-query as one assumption on one persistent
// engine (Een & Sorensson 2003). Clique vertex i is pinned to color i
// (Van Gelder 2008): any proper coloring can be relabeled to agree, and
// under NU the pinned colors form the used prefix, so no K-query changes
// its answer. SC, CA and LI fix colors their own way and turn pinning off.

#include <optional>
#include <string>
#include <vector>

#include "coloring/cnf_coloring.h"
#include "coloring/encoder.h"
#include "pb/generic_ilp.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "symmetry/shatter.h"

namespace symcolor {

/// Search-node cap of the bounds stage's exact max_clique: a fixed
/// constant, not an option. Every instance of the 20-instance suite but
/// DSJC125.9 proves its clique number within it, each in under 1 ms; on
/// DSJC125.9, whose clique number stays unproved, the cap binds after
/// about 10 ms (Release build, 4-vCPU x86 VM).
inline constexpr std::int64_t kSatLoopCliqueNodeCap = 1000;

struct ColoringOptions {
  /// Color bound K of the encoding (paper uses 20 and 30). A graph whose
  /// chromatic number exceeds this is reported Infeasible. The SAT loop
  /// ignores it: it encodes at its DSATUR bound.
  int max_colors = 20;
  /// Instance-independent SBPs added during formulation.
  SbpOptions sbps;
  /// At-most-one encoding of the per-vertex exactly-one constraint in the
  /// SAT loop's CNF; the native 0-1 ILP encoding ignores it.
  AmoEncoding amo = AmoEncoding::Sequential;
  /// Run the Shatter flow (detect + lex-leader SBPs) before solving. The
  /// SAT loop rejects it: a lex-leader clause from a generator that moves
  /// a y(k) is unsound under minimize()'s K-assumptions.
  bool instance_dependent_sbps = false;
  /// Truncate lex-leader chains (0 = full support).
  int sbp_max_support = 0;
  /// Solver personality. The SAT loop rejects SolverKind::GenericIlp.
  SolverKind solver = SolverKind::PbsII;
  /// Per-instance wall budget in seconds (0 = unlimited), covering
  /// symmetry detection plus solving.
  double time_budget_seconds = 0.0;
  /// Objective search strategy (pb/optimizer.h): linear strengthening,
  /// binary search, or core-guided lower-bound lifting — all three run on
  /// one persistent engine and reach the same optimum.
  SearchStrategy search = SearchStrategy::Linear;
  /// Compat residue: the pipeline has no pre-solve simplifier, and every
  /// entry point throws std::invalid_argument when this is set. Read only
  /// by suitebench; ROADMAP item 1c's [benchmark] PR deletes it.
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
  /// workloads.cpp reads it (deleted by ROADMAP item 1c's [benchmark] PR).
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
  /// The SAT loop reports only Optimal or Feasible: its bounds stage
  /// always finds a coloring.
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
  /// A clique of the graph (vertex ids, ascending), the certificate for
  /// chi >= clique.size(), checkable with is_clique. The bounds stage's
  /// clique, or the greedy clique that lifts a budgeted minimization's
  /// lower_bound; empty when the run needed none.
  std::vector<int> clique;
  /// Solve calls the solve stage issued (OptResult::probes); 0 when the
  /// bounds closed the run.
  int sat_calls = 0;

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

/// Minimize the number of colors through the SAT-loop plan: bounds first,
/// then CNF K-queries on one persistent engine. Reads `sbps`, `amo`,
/// `solver`, `search`, `threads`, `cube_depth`, `chrono_threshold` and the
/// budget fields; ignores `max_colors`. Throws std::invalid_argument for
/// `instance_dependent_sbps` and SolverKind::GenericIlp, which it cannot
/// honor, and, as every entry point does, for `presimplify`.
ColoringOutcome solve_coloring_sat_loop(const Graph& graph,
                                        const ColoringOptions& options = {});

/// Read only by suitebench; ROADMAP item 1c's [benchmark] PR deletes them.
using SatLoopOptions = ColoringOptions;
using SatLoopResult = ColoringOutcome;

}  // namespace symcolor
