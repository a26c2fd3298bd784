#pragma once
// CdclSolver — the CDCL solver for mixed CNF + pseudo-Boolean formulas.
//
// This is the engine underneath all "specialized 0-1 ILP solver"
// personalities in the paper (PBS / PBS II / Galena / Pueblo): a
// Davis-Logemann-Loveland backtrack search in three layers.
//   * The propagation engine (sat/prop_engine.h), CdclSolver's base.
//   * The cutting-planes analyzer (sat/cutting_planes.h), held by value:
//     Galena's native PB conflict analysis (PbAnalysis::CuttingPlanes).
//   * The searcher, this class: first-UIP clause learning with optional
//     minimization (local self-subsumption against each literal's direct
//     reason), VSIDS activity with phase saving, Luby or geometric
//     restarts, LBD-tiered learnt retention, chronological backtracking on
//     long clausal backjumps, clause sharing, and the budget ledger.
// No layer stores a pointer into another, so the copy constructor stays
// defaulted and every copy is an independent solver.
//
// The solver implements SolverEngine (sat/solver_engine.h) and is the
// unit of parallelism of the clone-based parallel engine
// (sat/parallel_solver.h): a deep copy is a handful of memcpys,
// reconfigure() diversifies a clone in place, and an attached
// ClauseExchange (set_sharing) carries glue learnt clauses — exported at
// learn time, imported at restart boundaries (a level-0 addition).
//
// Learned-clause management (Glucose lineage):
//   * Every learnt clause gets an LBD (literal block distance — the number
//     of distinct decision levels among its literals) measured during the
//     backjump-level scan of analyze() (no extra pass) and stored in the
//     arena header. When a learnt clause reappears in conflict analysis
//     its LBD is recomputed — at most once per reduction cycle, throttled
//     by the used flag — and kept if smaller, so glue estimates only
//     improve.
//   * A learnt binary clause lives only in the binary watch pool
//     (sat/prop_engine.h), with no arena record, activity or LBD. It is
//     core tier whatever its glue: two watch words propagated without an
//     arena access cost less to keep than any deletion saves. It still
//     counts in the learnt total that triggers reduce_db(), in the
//     initial limit's clause count and in stats().tier_core.
//   * reduce_db() splits the learned DB into three tiers by current LBD:
//       core  (lbd <= tier_core_lbd, default 2): kept unconditionally —
//             glue clauses connect decision levels and are never deleted;
//       mid   (lbd <= tier_mid_lbd, default 6): kept while "used" — i.e.
//             touched by conflict analysis since the previous reduction —
//             otherwise demoted to the local pool for this round;
//       local (everything else): sorted by activity, the less active half
//             is deleted, exactly as plain MiniSat would.
//     Locked clauses (serving as reasons) survive any tier. Learned PB
//     rows follow the same policy. Because the tiers protect exactly the
//     clauses worth keeping, the default reduction cadence is far more
//     aggressive than MiniSat's (first reduction at max(800, m/8) learnts)
//     — a small local pool keeps the watch lists short and propagation in
//     cache. The arena collection that follows packs the tiers hot-first
//     (PropEngine::garbage_collect).

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "sat/cutting_planes.h"
#include "sat/heap.h"
#include "sat/prop_engine.h"
#include "sat/solver_engine.h"
#include "util/rng.h"

namespace symcolor {

enum class RestartScheme { Luby, Geometric };

/// How conflicts on a pseudo-Boolean constraint are analyzed:
///   * Weaken — the classic PBS scheme: PB reasons are weakened to clauses
///     on the fly (cheap, but pigeonhole-style counting is lost).
///   * CuttingPlanes — Galena's native PB learning (sat/cutting_planes.h).
///     A resolvent that would overflow int64 falls back to Weaken (counted
///     in stats().pb_fallbacks), so it is never less sound.
enum class PbAnalysis { Weaken, CuttingPlanes };

/// Compat residue: the engine has no inprocessor; only suitebench's
/// workloads.cpp still names this (deleted by ROADMAP item 1c's
/// [benchmark] PR).
enum class InprocessMode { Off };

/// Deterministic fault injection for the portfolio's exception-barrier
/// tests (production configs leave this disarmed). The portfolio arms the
/// spec only on the worker it targets; a direct CdclSolver::solve honours
/// an armed spec regardless of the worker field.
struct FaultInjection {
  /// Portfolio worker index the fault targets; negative = every worker.
  int worker = 0;
  /// Throw std::runtime_error after this many conflicts in one solve()
  /// call (<= 0 = off).
  std::int64_t throw_after_conflicts = 0;
  /// Throw std::runtime_error at the first import boundary with a sharing
  /// sink attached (simulates a poisoned foreign constraint; never fires
  /// in deterministic portfolio mode, where sharing is detached).
  bool poison_import = false;

  [[nodiscard]] bool armed() const noexcept {
    return throw_after_conflicts > 0 || poison_import;
  }
};

/// The parallel engine's cube depth: lookahead splits each query into at
/// most 2^kCubeDepth cubes before work stealing splits stragglers further.
/// Picked from a sweep of depths 4, 6 and 8 at 4 threads on the hard
/// queen8_8 and queen8_12 runs (CHANGES.md).
inline constexpr int kCubeDepth = 8;

/// Search configuration, in three groups: the solver-profile axes along
/// which the paper's solvers differ (profile_config, pb/solver_profiles.h;
/// varied per worker by diversify_config), the pipeline and
/// parallel-engine knobs, and test levers that let test-sized instances
/// reach reduction, tiering, sharing and fault paths. Caps are not
/// configuration: they travel per solve() call in a SolveBudget.
struct SolverConfig {
  // ---- solver-profile axes ----
  double var_decay = 0.95;
  RestartScheme restart_scheme = RestartScheme::Luby;
  /// Conflicts in the first restart interval.
  std::int64_t restart_base = 100;
  /// Growth factor for geometric restarts.
  double restart_growth = 1.5;
  bool phase_saving = true;
  /// Initial branching phase when no phase is saved (false = branch to
  /// the negative literal first, the right default for coloring
  /// indicators where most variables are 0 in a solution).
  bool default_phase = false;
  bool minimize_learned = true;
  /// Fraction of decisions taken uniformly at random (diversification).
  double random_branch_freq = 0.0;
  std::uint64_t random_seed = 0x5EED;
  /// Analysis mode for PB conflicts (see PbAnalysis). Weaken is the
  /// default; the Galena profile and half the parallel personalities run
  /// CuttingPlanes.
  PbAnalysis pb_analysis = PbAnalysis::Weaken;

  // ---- pipeline knobs ----
  /// Chronological backtracking (CaDiCaL/MapleLCM lineage): when the 1UIP
  /// backjump would discard more than this many decision levels, undo only
  /// the conflicting level instead and keep the rest of the trail — the
  /// asserting literal is enqueued one level down and the skipped levels'
  /// propagations are never re-derived. Applies to the clausal analysis
  /// path only (a PB resolvent assertive at its backjump level need not
  /// propagate higher up, and unit learnts must reach level 0). The trail
  /// stays level-monotone because assignments record their enqueue-time
  /// decision level, so analyze()/analyze_final()/LBD scans run unchanged.
  /// <= 0 disables (always jump to the assertion level).
  std::int64_t chrono_threshold = 100;
  /// Compat residue, read by nothing in src/: only suitebench's
  /// workloads.cpp sets it (deleted by ROADMAP item 1c's [benchmark] PR).
  InprocessMode inprocess = InprocessMode::Off;

  // ---- parallel engine (read by make_solver_engine/ParallelSolver,
  // ---- ignored by CdclSolver itself) ----
  /// Number of cube-and-conquer workers; > 1 selects ParallelSolver, <= 1
  /// the plain sequential engine with zero threading overhead.
  int portfolio_threads = 1;

  // ---- test levers ----
  /// Initial learned-clause limit before the first reduce_db(); <= 0 means
  /// the automatic max(800, num_clauses / 8) — deliberately aggressive,
  /// see the tier discussion in the header comment. Tests use a tiny
  /// value to force frequent reductions/collections; diversify_config
  /// gives every fourth worker a tighter first reduction with it.
  double max_learnts_init = 0.0;
  /// Learnt clauses with LBD <= tier_core_lbd are never deleted.
  int tier_core_lbd = 2;
  /// Learnt clauses with LBD <= tier_mid_lbd survive a reduction while
  /// they have been used in conflict analysis since the previous one.
  int tier_mid_lbd = 6;
  /// Learnt clauses with LBD <= share_max_lbd are exported to the
  /// attached ClauseExchange (core-tier currency: glue <= 2 by
  /// default, matching tier_core_lbd; learnt units export as glue 1).
  /// The same cap is re-checked on the importer side: a foreign clause
  /// whose learn-time glue exceeds the importer's own threshold is
  /// dropped and counted in stats().rejected_imports.
  int share_max_lbd = 2;
  /// Reproducible mode: the parallel engine runs one worker, with clause
  /// sharing off, in FIFO deal order. Costs the parallel speedup; meant
  /// for tests.
  bool portfolio_deterministic = false;
  /// Lookahead probing splits the search space into assumption cubes of
  /// up to this depth (>= 1; ParallelSolver throws std::invalid_argument
  /// below). Every front end runs kCubeDepth; tests write smaller depths
  /// for test-sized partitions.
  int cube_depth = kCubeDepth;
  /// Candidate variables probed (both phases) per cube split, drawn from
  /// the top of the activity heap.
  int cube_candidates = 8;
  /// Conflicts the master spends on a warmup solve (seeding activities and
  /// learned clauses that cube generation branches on) before any cubes
  /// are generated; easy instances never reach the cube phase. <= 0 skips
  /// the warmup.
  std::int64_t cube_warmup_conflicts = 2000;
  /// Conflicts a worker spends on one cube before the cube is deemed
  /// stuck, split further via the worker's own activity heap, and re-dealt
  /// to the queue (the work-stealing tail). <= 0 disables splitting.
  std::int64_t cube_conflict_slice = 20000;
  /// A stuck cube stops re-splitting once its depth reaches cube_depth +
  /// cube_max_extra_depth and runs to completion instead (bounds the
  /// split cascade on adversarial instances).
  int cube_max_extra_depth = 8;
  /// Estimated-hardness cutoff: a branch whose probe already forces this
  /// fraction of the free variables by unit propagation is emitted as a
  /// leaf cube instead of being split further (the subproblem is easy).
  double cube_easy_frac = 0.3;
  /// Deterministic fault injection (tests only; see FaultInjection).
  FaultInjection fault_injection;
};

/// Learnt-clause census by retention tier (see SolverConfig thresholds).
struct TierCounts {
  std::int64_t core = 0;
  std::int64_t mid = 0;
  std::int64_t local = 0;
  /// Of `core`, the learnt clauses of two literals.
  std::int64_t binary = 0;
};

/// One solver instance owns a private copy of the formula's constraints.
/// Usage: construct, optionally add more constraints, then solve().
///
/// Implements SolverEngine; the virtual boundary sits at the granularity
/// of whole solve()/add_*() calls, so the propagation/analysis hot path
/// (all non-virtual members) is unaffected by the indirection.
class CdclSolver final : public SolverEngine, private PropEngine {
 public:
  explicit CdclSolver(const Formula& formula, SolverConfig config = {});

  /// Deep copy — the portfolio's worker-spawn path. The arena, pools and
  /// per-variable state are contiguous vectors, so this is a handful of
  /// memcpys; learned clauses, activities, saved phases and the level-0
  /// trail all carry over. The sharing attachment deliberately does NOT:
  /// a clone starts unattached (PortfolioHooks resets itself on copy,
  /// which is what lets this stay = default — no hand-maintained member
  /// list to drift when state is added).
  CdclSolver(const CdclSolver& other) = default;
  CdclSolver& operator=(const CdclSolver&) = delete;

  /// Add a clause after construction (used by the optimization loop to
  /// strengthen objective bounds between calls). The solver is at level 0
  /// between solves, so the addition always happens there. Returns false
  /// if the addition makes the instance trivially unsat.
  bool add_clause(Clause clause) override { return load_clause(clause); }
  /// Add a PB constraint after construction (level 0, like add_clause).
  bool add_pb(PbConstraint constraint) override { return load_pb(constraint); }

  /// Solve under optional assumptions (the SolverEngine contract: every
  /// exit unwinds to decision level 0, learned clauses persist).
  /// Asynchronous conditions are polled on a coarse cadence (every 256
  /// search steps), so interrupt latency is bounded by that many
  /// conflicts. Counted caps allow what the chain has left at entry; the
  /// spend is charged to the chain at each poll and on exit.
  ///
  /// Entry poll / stale interrupts: solve() polls the budget before doing
  /// ANY work and never clears its sticky interrupt flag, so an interrupt
  /// set after a previous solve returned preempts this one at entry (the
  /// kill-switch semantics of a shared budget; an owner reusing one budget
  /// for independent solves must clear_interrupt() between them).
  SolveResult solve(const SolveBudget& budget = {},
                    std::span<const Lit> assumptions = {}) override;

  /// Which bound ended the last solve() early (None after Sat/Unsat).
  [[nodiscard]] BudgetTrip last_trip() const noexcept override {
    return last_trip_;
  }

  /// Complete model from the last Sat answer, indexed by variable.
  [[nodiscard]] const std::vector<LBool>& model() const noexcept override {
    return model_;
  }

  /// Failed-assumption core of the last Unsat answer (see SolverEngine);
  /// computed by analyze_final() before the exit backtrack unwinds the
  /// implication graph it walks. Empty when unsatisfiability does not
  /// depend on the assumptions.
  [[nodiscard]] std::span<const Lit> last_core() const noexcept override {
    return core_;
  }

  [[nodiscard]] const SolverStats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] int num_vars() const noexcept override {
    return PropEngine::num_vars();
  }

  // ---- portfolio hooks ----
  /// Attach (or detach with nullptr) a shared clause pool. Glue learnt
  /// clauses (LBD <= config.share_max_lbd) are exported at learn time;
  /// foreign clauses are imported at every restart boundary. The import
  /// cursor resets on attach, so re-attaching to a fresh pool is safe.
  void set_sharing(ClauseExchange* sharing, int worker_id) {
    hooks_.sharing = sharing;
    hooks_.worker_id = worker_id;
    hooks_.import_cursor = 0;
    hooks_.pb_import_cursor = 0;
  }
  /// Swap the configuration of a live solver (the portfolio diversifies
  /// clones this way). Learned clauses, activities and saved phases are
  /// kept; the RNG is reseeded from the new config and a positive
  /// max_learnts_init resets the reduce limit. Phase diversification via
  /// default_phase therefore only bites with phase_saving off (saved
  /// polarities win otherwise).
  void reconfigure(const SolverConfig& config);

  // ---- cube-generation probes (driven by sat/cubes.h) ----
  using PropEngine::ProbeResult;
  /// Take `assumptions` as decisions one by one under propagation alone —
  /// no conflict analysis, no learning, no activity bumps — and report
  /// whether the prefix refutes and how much it forces. Leaves the solver
  /// at level 0, so probes interleave freely with solve() calls.
  [[nodiscard]] ProbeResult probe_assumptions(std::span<const Lit> assumptions);
  /// The (up to) `k` unassigned variables with the highest VSIDS activity,
  /// ties broken by watcher occurrence count (most-constrained first):
  /// the branch candidates of the lookahead cube generator.
  [[nodiscard]] std::vector<Var> top_branch_candidates(int k) const;
  /// The phase pick_branch() would try first for `v` under the current
  /// phase policy. Cube generation orders each split's saved-phase child
  /// first so the model-finding branch keeps the solver's preference.
  [[nodiscard]] bool saved_phase(Var v) const noexcept {
    return config_.phase_saving ? polarity_[static_cast<std::size_t>(v)] != 0
                                : config_.default_phase;
  }

  // ---- storage introspection (tests / benchmarks) ----
  using PropEngine::arena_words;
  using PropEngine::decision_level;
  using PropEngine::live_clauses;
  using PropEngine::pb_occ_pool_slots;
  using PropEngine::total_pb_occs;
  using PropEngine::total_watchers;
  using PropEngine::watcher_pool_slots;
  /// Census of the live learnt DB by retention tier (an arena scan plus
  /// the learnt binaries, all core; see the tier thresholds in
  /// SolverConfig). Unlike stats().tier_*, which
  /// snapshots the last reduce_db(), this reflects the current instant.
  [[nodiscard]] TierCounts learned_tier_counts() const;

 private:
  /// First-UIP learning. Also reports the learnt clause's LBD, folded into
  /// the backjump-level scan so the glue costs no extra pass.
  void analyze(Conflict conflict, std::vector<Lit>* learnt, int* backjump,
               int* lbd);
  /// Final-conflict analysis (MiniSat's analyzeFinal): pending assumption
  /// `failed` is already false under the assumptions taken so far. Fills
  /// core_ with `failed` plus the assumptions its falsity rests on (found
  /// by walking reasons back from ~failed), a subset of the caller's
  /// assumptions jointly unsatisfiable with the formula. Must run before
  /// the exit backtrack(0).
  void analyze_final(Lit failed);
  void minimize_learnt(std::vector<Lit>* learnt);
  /// Attach a learnt clause shaped as analyze() emits it (slot 0 the
  /// asserting literal, slot 1 the highest-level other one) with its LBD,
  /// and assert it; a unit is enqueued reason-free (legal at level 0).
  void learn_clause(std::span<const Lit> lits, int lbd);

  // ---- cutting-planes path (defined in cutting_planes.cpp) ----
  /// cp_.analyze() plus the activity bumps and counters it leaves to the
  /// searcher.
  CuttingPlanes::Outcome analyze_pb(Conflict conflict,
                                    CuttingPlanes::Learned* out);
  /// Assert a learned cutting-planes outcome: backjump, then enqueue a
  /// unit, attach a clause, or attach a PB row and propagate it. Returns
  /// true when the learned constraint conflicts at the backjump level;
  /// `*conflict` then names it and the caller analyzes again.
  bool learn_pb(CuttingPlanes::Learned& pl, Conflict* conflict);
  /// attach_pb_row() plus the learnt bookkeeping; returns the row index.
  std::uint32_t attach_learned_pb(std::span<const PbTerm> terms,
                                  std::int64_t degree, int glue);
  /// Activity bump + used-flag maintenance for a learned PB touched by
  /// conflict analysis (the PB analog of bump_clause + touch_learnt).
  void bump_pb(std::uint32_t pb_index);

  /// PropEngine::backtrack with phase saving and the heap re-insert.
  void backtrack(int target_level);
  /// Fire reduce_db() once the learnt DB reaches max_learnts_, then grow
  /// the limit.
  void maybe_reduce();
  Lit pick_branch();
  void bump_var(Var v);
  void bump_clause(ClauseRef cref);
  void decay_activities();
  /// Retention tier of a learnt constraint under the configured
  /// thresholds. Learnt binary clauses live outside the arena and are
  /// core whatever their glue: two watch words, propagated without arena
  /// access, never worth deleting.
  enum class Tier : std::uint8_t { Core, Mid, Local };
  [[nodiscard]] Tier tier_of(int lbd) const {
    if (lbd <= config_.tier_core_lbd) return Tier::Core;
    return lbd <= config_.tier_mid_lbd ? Tier::Mid : Tier::Local;
  }
  [[nodiscard]] Tier clause_tier(ClauseRef cref) const {
    return tier_of(arena_.lbd(cref));
  }
  /// The reduction verdict on a non-core learnt constraint: true makes it
  /// a deletion candidate (a mid-tier one is then counted as demoted).
  /// Either way the caller clears its used flag.
  bool retire(Tier tier, bool used, bool locked);
  void reduce_db();
  void reduce_learned_pbs();

  /// Number of distinct nonzero decision levels among the clause's
  /// literals (the glue measure). Uses a stamped scratch array,
  /// O(|clause|). All literals must be assigned (levels of unassigned
  /// variables are stale), which holds for conflict/reason clauses.
  [[nodiscard]] int compute_clause_lbd(ClauseRef cref);
  /// Mark a learnt clause used by conflict analysis and improve its
  /// stored LBD if the recomputed value is smaller (tier promotion).
  void touch_learnt(ClauseRef cref);
  /// Publish a freshly learnt clause to the sharing sink when its glue
  /// qualifies (called for learnt units too, as glue 1).
  void maybe_export(std::span<const Lit> learnt, int lbd);
  /// Publish a freshly learned PB row (cutting-planes resolvent) under
  /// the same glue/size admission caps as clause exports.
  void maybe_export_pb(std::span<const PbTerm> terms, std::int64_t degree,
                       int glue);
  /// Absorb every foreign clause and PB row published since the import
  /// cursors (at decision level 0: restart boundaries and solve entry),
  /// re-checking this solver's own size/LBD admission caps. Returns false
  /// when an import derives level-0 unsatisfiability.
  bool drain_imports();
  /// Record a budgeted exit (trip kind + stats counter) and unwind to
  /// level 0; every Unknown return of solve() funnels through this.
  SolveResult budget_exit(BudgetTrip trip);

  // ---- state ----
  SolverConfig config_;
  Rng rng_;
  CuttingPlanes cp_;

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  double pb_inc_ = 1.0;  // learned-PB activity increment (same decay)
  ActivityHeap order_;  // owns the VSIDS score array (order_.scores())
  std::vector<char> polarity_;  // saved phase, 1 = last value true

  std::vector<char> seen_;      // scratch for analyze()
  std::vector<Var> analyze_toclear_;            // marks to reset post-analyze
  std::vector<std::uint64_t> lbd_level_stamp_;  // by level, for LBD scans
  std::uint64_t lbd_stamp_ = 0;

  /// Portfolio attachment (sharing sink, worker identity). Self-resetting
  /// on copy: a clone must start detached (these point into the spawning
  /// pool's solve() frame), which keeps the copy constructor defaultable.
  struct PortfolioHooks {
    ClauseExchange* sharing = nullptr;
    int worker_id = 0;
    std::size_t import_cursor = 0;
    std::size_t pb_import_cursor = 0;
    PortfolioHooks() = default;
    PortfolioHooks(const PortfolioHooks&) noexcept {}  // copy = detach
    PortfolioHooks& operator=(const PortfolioHooks&) = delete;
  };
  PortfolioHooks hooks_;
  std::vector<SharedClause> import_buf_;  // drain_imports scratch
  std::vector<SharedPb> pb_import_buf_;   // drain_imports scratch (PB rows)

  std::vector<LBool> model_;
  std::vector<Lit> core_;  // failed-assumption core of the last Unsat
  BudgetTrip last_trip_ = BudgetTrip::None;
  std::int64_t learnt_count_ = 0;
  double max_learnts_ = 0.0;
};

}  // namespace symcolor
