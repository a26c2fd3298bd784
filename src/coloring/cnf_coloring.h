#pragma once
// Pure-CNF K-coloring and the SAT-loop optimizer.
//
// The paper solves the optimization problem natively in 0-1 ILP but
// notes (Section 2.3) that "it is possible to solve the optimization
// version by repeatedly solving instances of the K-coloring using a SAT
// solver, with the value of K being updated after each call" — at the
// cost of the extra loop. This module implements that alternative
// pipeline end to end so the trade-off can be measured:
//
//  * a pure-CNF encoding of K-coloring with a choice of at-most-one
//    encodings for the per-vertex exactly-one constraint (pairwise,
//    sequential counter, commander), instance-independent SBPs included
//    (CA's PB inequalities are compiled to CNF via pb_to_cnf);
//  * the search over K between a clique lower bound and a DSATUR upper
//    bound (the per-instance procedure the paper sketches in Section
//    4.1), run by minimize() (pb/optimizer.h) like every other
//    optimization: linear, binary or core-guided, on ONE persistent
//    engine (see below).
//
// Bounds come first. DSATUR gives the upper bound and greedy_clique a
// lower one; only when the two leave a gap does the exact max_clique run,
// under a fixed search-node cap (never a wall cap, so the bound is the same
// on every machine) and stopping once it meets the DSATUR count. A clique
// that meets it closes the run with no SAT call at all.
//
// The clique also breaks color symmetry. The encoding pins clique vertex
// i to color i, once for every K-query (Van Gelder, "Another look at
// graph coloring via propositional satisfiability", 2008): selective
// coloring's two pinned vertices generalized to q. Any proper coloring
// can be relabeled to agree, and NU stays valid because the pinned colors
// 0..q-1 form the used prefix. SC, CA and LI fix colors in their own way, so pinning applies
// only when `sbps` selects none of them (NU alone, or no SBPs: the CLI's
// --satloop default).
//
// The loop encodes once, at the DSATUR bound with NU forced on, adds the
// objective MIN sum_j y(j), and hands the formula to minimize() with the
// clique size as its proven lower bound. Each K-query "<= k colors?" is
// then one assumption on minimize()'s objective ladder (SAT solving under
// assumptions, Een & Sorensson 2003), and learned clauses survive every
// query. The engine comes from the SolverEngine factory, so the loop runs
// unchanged on the sequential CDCL engine (portfolio_threads = 1) or on
// the parallel engine (portfolio_threads > 1, racing or cube schedule).

#include "coloring/encoder.h"
#include "pb/optimizer.h"
#include "sat/cdcl.h"
#include "util/timer.h"

namespace symcolor {

enum class AmoEncoding {
  Pairwise,    ///< K(K-1)/2 binary clauses per vertex, no auxiliaries
  Sequential,  ///< Sinz counter: ~3K clauses, K-1 auxiliaries per vertex
  Commander,   ///< grouped commanders: ~flat hierarchy of group AMOs
};

const char* amo_encoding_name(AmoEncoding encoding);

/// Pure-CNF decision encoding: is `graph` max_colors-colorable?
/// The returned encoding's formula contains no PB constraints.
ColoringEncoding encode_k_coloring_cnf(const Graph& graph, int max_colors,
                                       AmoEncoding amo,
                                       const SbpOptions& sbps = {});

/// Search-node cap of the SAT loop's exact max_clique: a fixed constant,
/// not an option. Every instance of the 20-instance suite but DSJC125.9
/// proves its clique number within it, each in under 1 ms; on DSJC125.9,
/// whose clique number stays unproved, the cap binds after about 10 ms
/// (Release build, 4-vCPU x86 VM).
inline constexpr std::int64_t kSatLoopCliqueNodeCap = 1000;

struct SatLoopOptions {
  AmoEncoding amo = AmoEncoding::Sequential;
  SbpOptions sbps;
  /// Solver configuration, including the ONE thread knob:
  /// solver.portfolio_threads > 1 races the clone-based parallel engine
  /// inside every SAT call (sat/parallel_solver.h). The minimum color count is
  /// identical at any thread count — only the wall-clock changes. The
  /// engine's master carries learned clauses (its own and imported core
  /// clauses) across the K queries.
  SolverConfig solver;
  double time_budget_seconds = 0.0;
  /// Search strategy over K, passed straight to minimize(): Linear
  /// descends from the first model until UNSAT or the clique bound,
  /// Binary bisects [clique, best], CoreGuided lifts the bound from
  /// failed-assumption cores before bisecting.
  SearchStrategy search = SearchStrategy::Linear;
  /// Whole-run conflict / propagation budgets across ALL SAT calls
  /// (<= 0 = unlimited); minimize() spreads them over its probes.
  std::int64_t conflict_budget = 0;
  std::int64_t prop_budget = 0;
  /// Optional external budget (not owned; must outlive the call). The run
  /// executes under a child of it, so the caller's deadline and
  /// interrupt() preempt the whole loop and the caller's counted caps
  /// bound it. The per-run knobs above still apply (tightest wins).
  const SolveBudget* budget = nullptr;
};

struct SatLoopResult {
  OptStatus status = OptStatus::Unknown;
  int num_colors = -1;
  std::vector<int> coloring;
  /// Tightest PROVEN lower bound on the chromatic number: the clique
  /// below, lifted by minimize()'s proven bound. Equals num_colors when
  /// status is Optimal; on a budgeted exit chi lies in
  /// [lower_bound, num_colors].
  int lower_bound = 0;
  /// The clique the loop started from (vertex ids, ascending): the
  /// certificate for chi >= clique.size(), checkable with is_clique. At
  /// most lower_bound; smaller when Unsat queries lifted the bound.
  std::vector<int> clique;
  /// minimize()'s probe count; 0 when the bounds closed the run.
  int sat_calls = 0;
  /// The engine's counters over every probe (zero when no SAT call ran).
  SolverStats solver_stats;
  double seconds = 0.0;
  /// Which resource bound cut the loop short (None when Optimal).
  BudgetTrip tripped = BudgetTrip::None;
  bool budget_exhausted = false;
};

/// Minimize the number of colors by repeated CNF K-coloring queries.
SatLoopResult solve_coloring_sat_loop(const Graph& graph,
                                      const SatLoopOptions& options = {});

}  // namespace symcolor
