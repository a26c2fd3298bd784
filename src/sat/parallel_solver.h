#pragma once
// Clone-based parallel engine over the CDCL solver: cube-and-conquer
// (Heule, Kullmann, Wieringa & Biere, HVC 2011) on one worker pool.
//
// A ParallelSolver owns ONE master CdclSolver that carries all incremental
// state (constraints added between solves, learned clauses, activities,
// saved phases). Each solve() runs three phases:
//
//   * warmup: the master runs a short budgeted solve
//     (SolverConfig::cube_warmup_conflicts). Easy queries end here, and
//     the rest start the cube phase with warmed activities and learned
//     clauses;
//   * lookahead: propagation-count probing on the warmed master splits
//     the space into assumption cubes of up to SolverConfig::cube_depth
//     literals (sat/cubes.h);
//   * conquer: a pool of N = portfolio_threads workers on std::thread
//     pulls the cubes from one CubeQueue. Worker 0 IS the master (so
//     whatever it learns persists into the next query); workers 1..N-1
//     are fresh clones of it, each diversified by diversify_config
//     (restart schedule, polarity policy, first-reduction size,
//     random-branching rate, PB analysis mode and a per-worker RNG seed).
//     A cube that exhausts its conflict slice is split further ON THE
//     STUCK WORKER (whose activity heap reflects exactly that cube's hard
//     core) and its children are re-dealt; a refuted cube's
//     failed-assumption core prunes every queued sibling containing the
//     same cube literals. A Sat cube answers the query; refuting every
//     cube refutes it.
//
// Workers exchange core-tier learnt clauses and learned PB rows through
// one bounded ClauseExchange per solve (sat/solver_engine.h; exports at
// learn time, imports at restart boundaries as ordinary level-0
// additions). Sharing across cubes is sound: learnt constraints are
// consequences of the formula alone — conflict analysis never resolves on
// assumption pseudo-decisions. The ANSWER is exact at any worker count;
// only the wall clock moves.
//
// Determinism: portfolio_deterministic runs the pool as one worker, with
// sharing off, in FIFO deal order. Repeated runs reproduce the same
// result, model and stats (tests rely on this).
//
// Fault isolation: every worker runs under an exception barrier. A worker
// that throws mid-solve (a real bug, resource exhaustion, or the
// SolverConfig::fault_injection test hook) is marked dead and excluded —
// its in-flight cube is re-dealt so the partition stays covered, and the
// survivors finish and answer. If the dead worker is the master, the
// master is rebuilt from a surviving clone before solve() returns — sound
// because every clone holds only consequences of the same formula.
// Injected fault specs are one-shot: after any worker dies the spec is
// disarmed for later solves. Only when EVERY worker dies does solve()
// rethrow (the lowest-indexed worker's exception); a fault during the
// warmup, before any clone exists, reaches the caller unchanged.
//
// Budgets: the pool runs every worker under one child of the caller's
// budget, whose interrupt() is the first-answer stop and whose children
// are the cube slices. All limits are global: every worker charges the
// one chain, so a counted cap bounds the workers' sum.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sat/cdcl.h"
#include "sat/solver_engine.h"

namespace symcolor {

/// Stir a worker index into the base RNG seed (SplitMix64 finalizer).
/// Worker 0 keeps the base seed — it is the master itself; every other
/// worker gets a decorrelated stream even when base seeds are small
/// consecutive integers.
[[nodiscard]] std::uint64_t mix_worker_seed(std::uint64_t base_seed,
                                            int worker);

/// Worker `index`'s diversified configuration (index 0 returns `base`
/// unchanged). Cycles through four personalities that vary the restart
/// schedule, PB analysis mode, phase policy, first-reduction size and
/// random-branching rate, and always reseeds the RNG via mix_worker_seed.
[[nodiscard]] SolverConfig diversify_config(const SolverConfig& base,
                                            int index);

/// SolverEngine that deals a cube partition of each solve() call to a
/// pool of diversified clones of one master CdclSolver. See the header
/// comment for the architecture; see make_solver_engine for the usual way
/// to obtain one.
class ParallelSolver final : public SolverEngine {
 public:
  /// Throws std::invalid_argument when config.cube_depth < 1.
  ParallelSolver(const Formula& formula, SolverConfig config);

  bool add_clause(Clause clause) override {
    return master_->add_clause(std::move(clause));
  }
  bool add_pb(PbConstraint constraint) override {
    return master_->add_pb(std::move(constraint));
  }
  /// Solve under one shared budget: warmup, lookahead, then the pool.
  /// Each worker polls the budget's asynchronous conditions itself (so
  /// interrupt() preempts the whole pool, deterministic mode included).
  SolveResult solve(const SolveBudget& budget = {},
                    std::span<const Lit> assumptions = {}) override;
  [[nodiscard]] const std::vector<LBool>& model() const noexcept override {
    return model_;
  }
  /// Failed-assumption core of the last Unsat answer: the union of the
  /// caller-assumption parts of every refuted cube's core (or a single
  /// refutation's core when the warmup or one cube already refutes
  /// without cube literals), falling back to the full assumption set when
  /// any refutation lacked core attribution.
  [[nodiscard]] std::span<const Lit> last_core() const noexcept override {
    return core_;
  }
  /// Stats of the answering worker, plus the solve's cube counters (the
  /// other workers' work is reported through aggregated_stats(), not
  /// folded in here). The four exit counters count this engine's own
  /// solve() calls by the trip each returned, as on the sequential
  /// engine: a worker's cube slices and wind-down stops are not exits.
  [[nodiscard]] const SolverStats& stats() const noexcept override {
    return stats_;
  }
  /// Field-wise sum of EVERY worker's counters — winners, losers, and
  /// workers that died behind the exception barrier alike, master warmup
  /// and probe propagation included — cumulative across solve() calls.
  [[nodiscard]] const SolverStats& aggregated_stats()
      const noexcept override {
    return agg_stats_;
  }
  [[nodiscard]] int num_vars() const noexcept override {
    return master_->num_vars();
  }
  /// Which bound ended the last solve() early: None after a definitive
  /// answer, otherwise the lowest-indexed worker's recorded trip (under
  /// one shared budget every survivor trips on the same condition, modulo
  /// poll-cadence races).
  [[nodiscard]] BudgetTrip last_trip() const noexcept override {
    return last_trip_;
  }

  // ---- introspection (tests / benchmarks / --stats) ----
  /// Index of the worker whose answer the last solve() surfaced; -1 when
  /// no solve has completed or the solve ended Unknown.
  [[nodiscard]] int last_winner() const noexcept { return last_winner_; }
  /// Workers that died behind the exception barrier in the last solve()
  /// (0 on every healthy run).
  [[nodiscard]] int last_fault_count() const noexcept { return last_faults_; }
 private:
  /// One solve's workers and their per-worker outcomes (parallel_solver.cpp).
  struct Pool;
  /// The conquer phase over a Pool (parallel_solver.cpp).
  struct CubeRun;

  /// Aggregate the pool's stats, then handle its dead workers: rethrow
  /// when nobody survived, disarm the fault spec, repair the master.
  void settle(Pool& pool, const SolverStats& before);
  /// The pool's answer: the winner's, else Unknown with the first recorded
  /// trip. Throws std::logic_error when definitive workers disagree.
  SolveResult conclude(Pool& pool, const SolveBudget& budget);
  /// Surface `r` as this solve's answer, read off worker `from`.
  SolveResult adopt(SolveResult r, const CdclSolver& from, int winner,
                    std::span<const Lit> core, BudgetTrip trip);

  SolverConfig config_;
  /// Owned behind a pointer so a dead master can be swapped for a rebuilt
  /// one (copied from a surviving clone) without disturbing callers.
  std::unique_ptr<CdclSolver> master_;
  std::vector<LBool> model_;
  std::vector<Lit> core_;
  SolverStats stats_;
  SolverStats agg_stats_;
  /// Only the exit counters are used: one count per Unknown solve().
  SolverStats exits_;
  BudgetTrip last_trip_ = BudgetTrip::None;
  int last_winner_ = -1;
  int last_faults_ = 0;
};

/// Backend factory the whole pipeline funnels through: a ParallelSolver
/// when config.portfolio_threads > 1, otherwise a plain CdclSolver (zero
/// parallel overhead on the 1-thread path).
[[nodiscard]] std::unique_ptr<SolverEngine> make_solver_engine(
    const Formula& formula, const SolverConfig& config);

/// The range every front end bounds its thread count to (1..kMaxThreads;
/// each worker is one std::thread). Each front end names its own flag or
/// field when a value falls outside.
inline constexpr int kMaxThreads = 64;

}  // namespace symcolor
