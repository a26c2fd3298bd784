#pragma once
// Clone-based parallel engine over the CDCL solver: one worker pool, two
// schedules.
//
// A ParallelSolver owns ONE master CdclSolver that carries all incremental
// state (constraints added between solves, learned clauses, activities,
// saved phases). Each solve() deals work to a pool of N =
// portfolio_threads workers on std::thread:
//
//   * worker 0 IS the master (so whatever it learns persists into the
//     next query — the incremental-SAT behaviour callers rely on);
//   * workers 1..N-1 are fresh clones of the master — the contiguous
//     arena/pool storage makes a clone a handful of memcpys — each
//     diversified by diversify_config along the classic portfolio axes
//     (restart schedule, polarity policy, first-reduction size,
//     random-branching rate, PB analysis mode, and a per-worker RNG seed).
//
// The schedule follows from SolverConfig::cube_depth:
//
//   * race (cube_depth == 0, ManySAT-style portfolio): every worker gets
//     the empty cube — the whole query — under the caller's full budget.
//     The first worker to reach a definitive answer wins; it interrupts
//     the pool's budget and the losers bail out at their next poll.
//   * cubes (cube_depth > 0, cube-and-conquer): the master runs a short
//     warmup solve (easy instances never go further), propagation-count
//     lookahead on the warmed master partitions the space into assumption
//     cubes (sat/cubes.h), and the pool pulls them from one CubeQueue. A
//     cube that exhausts its conflict slice is split further ON THE STUCK
//     WORKER (whose activity heap reflects exactly that cube's hard core)
//     and its children are re-dealt; a refuted cube's failed-assumption
//     core prunes every queued sibling containing the same cube literals.
//     A Sat cube answers the query; refuting every cube refutes it.
//
// Either way workers exchange core-tier learnt clauses and learned PB rows
// through one bounded ClauseExchange per solve (sat/solver_engine.h;
// exports at learn time, imports at restart boundaries as ordinary
// level-0 additions). Sharing across cubes
// is sound: learnt constraints are consequences of the formula alone —
// conflict analysis never resolves on assumption pseudo-decisions. The
// ANSWER is exact at any worker count; only the wall clock moves.
//
// Determinism: portfolio_deterministic turns sharing and early exit off.
// The race still runs all N workers to completion and crowns the
// lowest-indexed definitive answer; the cube schedule runs one worker in
// FIFO deal order. Repeated runs reproduce the same result, model and
// stats (tests rely on this). A 1-worker race runs the master inline with
// no threads and no sharing — bit-for-bit the sequential engine.
//
// Fault isolation: every worker runs under an exception barrier. A worker
// that throws mid-solve (a real bug, resource exhaustion, or the
// SolverConfig::fault_injection test hook) is marked dead and excluded —
// the survivors finish and answer (a dead cube worker's in-flight cube is
// re-dealt so the partition stays covered). If the dead worker is the
// master, the master is rebuilt from a surviving clone before solve()
// returns — sound because every clone holds only consequences of the same
// formula. Injected fault specs are one-shot: after any worker dies the
// spec is disarmed for later solves. Only when EVERY worker dies does
// solve() rethrow (the lowest-indexed worker's exception); a 1-worker
// solve therefore propagates a fault to the caller unchanged.
//
// Budgets: the pool runs every worker under one child of the caller's
// budget, whose interrupt() is the first-answer stop (never fired in
// deterministic mode) and whose children are the cube slices. Wall clock
// and interrupt are global; counted caps (conflicts/propagations) bound
// each worker's solve, not the sum.

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

/// SolverEngine that runs a pool of diversified clones of one master
/// CdclSolver per solve() call, racing them (cube_depth == 0) or dealing
/// them a cube partition (cube_depth > 0). See the header comment for the
/// architecture; see make_solver_engine for the usual way to obtain one.
class ParallelSolver final : public SolverEngine {
 public:
  ParallelSolver(const Formula& formula, SolverConfig config);
  ParallelSolver(const ParallelSolver& other);

  bool add_clause(Clause clause) override {
    return master_->add_clause(std::move(clause));
  }
  bool add_pb(PbConstraint constraint) override {
    return master_->add_pb(std::move(constraint));
  }
  /// Solve under one shared budget. Each worker polls the budget's
  /// asynchronous conditions itself (so interrupt() preempts the whole
  /// pool, deterministic mode included).
  SolveResult solve(const SolveBudget& budget = {},
                    std::span<const Lit> assumptions = {}) override;
  [[nodiscard]] const std::vector<LBool>& model() const noexcept override {
    return model_;
  }
  /// Failed-assumption core of the last Unsat answer. A race surfaces the
  /// WINNING worker's core (diversified workers may find different,
  /// equally valid cores). The cube schedule surfaces the union of the
  /// caller-assumption parts of every refuted cube's core (or a single
  /// refutation's core when one cube already refutes without its cube
  /// literals), falling back to the full assumption set when any
  /// refutation lacked core attribution.
  [[nodiscard]] std::span<const Lit> last_core() const noexcept override {
    return core_;
  }
  /// Stats of the answering worker (the losers' partial work is reported
  /// through aggregated_stats(), not folded in here).
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
  [[nodiscard]] std::unique_ptr<SolverEngine> clone() const override {
    return std::make_unique<ParallelSolver>(*this);
  }
  /// Swap the base configuration: the master is reconfigured in place and
  /// the new base drives the next solve()'s schedule and diversification.
  /// Existing learned state is kept either way.
  void reconfigure(const SolverConfig& config) override {
    config_ = config;
    master_->reconfigure(config);
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
  /// The cube schedule's conquer phase over a Pool (parallel_solver.cpp).
  struct CubeRun;

  /// The cube schedule: warmup, generation, then the pool on a CubeQueue.
  SolveResult conquer(const SolveBudget& budget,
                      std::span<const Lit> assumptions,
                      const SolverStats& before);
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
  BudgetTrip last_trip_ = BudgetTrip::None;
  int last_winner_ = -1;
  int last_faults_ = 0;
};

/// Backend factory the whole pipeline funnels through: a plain CdclSolver
/// when config.portfolio_threads <= 1 and config.cube_depth == 0 (zero
/// parallel overhead on the 1-thread path), a ParallelSolver otherwise.
[[nodiscard]] std::unique_ptr<SolverEngine> make_solver_engine(
    const Formula& formula, const SolverConfig& config);

}  // namespace symcolor
