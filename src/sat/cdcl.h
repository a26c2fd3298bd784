#pragma once
// CDCL solver for mixed CNF + pseudo-Boolean formulas.
//
// This is the engine underneath all "specialized 0-1 ILP solver"
// personalities in the paper (PBS / PBS II / Galena / Pueblo): a
// Davis-Logemann-Loveland backtrack search with
//   * two-watched-literal propagation for clauses,
//   * counter-based propagation (slack maintenance) for PB constraints,
//   * first-UIP conflict-driven clause learning — PB reasons are weakened
//     to clausal reasons on demand, the classic PBS scheme — or, under
//     PbAnalysis::CuttingPlanes (the Galena scheme), native pseudo-Boolean
//     conflict analysis: PB conflicts are resolved against PB reasons by
//     coefficient-scaled addition with saturation and gcd rounding, and
//     the resolvent is learned as a PB constraint (tiered in reduce_db()
//     beside the learnt clauses) or as a clause when it degenerates,
//   * optional learned-clause minimization (local self-subsumption
//     against each literal's direct reason),
//   * VSIDS variable activity with phase saving,
//   * Luby or geometric restart schedules,
//   * LBD-tiered learned-clause retention with activity tie-breaking,
//     reduced whenever the learnt DB crosses a growing size limit,
//   * chronological backtracking on long clausal backjumps.
//
// SolverConfig groups its fields by who sets them: the solver-profile
// axes along which the paper's solvers differ (pb/solver_profiles.h), the
// pipeline and parallel-engine knobs, and the test levers that let small
// instances reach reduction, sharing and fault paths.
//
// The solver implements the SolverEngine interface (sat/solver_engine.h)
// and is the unit of parallelism of the clone-based parallel engine
// (sat/parallel_solver.h): the arena/pool storage makes a deep copy a handful
// of memcpys, reconfigure() diversifies a clone in place, and an attached
// ClauseExchange (set_sharing) lets racing workers exchange core-tier
// (glue <= share_max_lbd) learnt clauses — exported at learn time,
// imported at restart boundaries where a plain level-0 clause addition is
// sound.
//
// Constraint storage (the propagation hot path):
//   * Clauses live in a single contiguous ClauseArena (sat/clause_arena.h)
//     as [header | activity | lits...] records addressed by 32-bit
//     ClauseRefs; LBD and the used flag ride in spare header bits so the
//     record stays at the minimal 2 + size words. Watchers carry
//     {ClauseRef, blocker literal}; a watcher visit whose blocker is
//     already true never touches the arena at all.
//   * Watch lists live in flat watcher pools (sat/watcher_pool.h):
//     per-literal {offset, size, capacity} headers into a single
//     contiguous Watcher slab with amortized-doubling growth. The pools
//     are compacted back to garbage-free CSR order during reduce_db() GC
//     (and before a solve when they have grown sparse), so propagation
//     scans ride one allocation instead of 2N heap vectors.
//   * Binary clauses watch through a dedicated pool scanned before the
//     long-clause rows: each entry is the implied literal plus the clause
//     ref, so the scan needs no tag test, no arena access, and no
//     keep-compaction write-back — on the paper's coloring encodings
//     (overwhelmingly binary) most propagation never leaves this loop.
//   * reduce_db() performs MiniSat-style garbage collection: live clauses
//     are compacted into a fresh arena in layout order and every stored
//     ref (watch lists, trail reasons) is remapped through the forwarding
//     pointers. There are no tombstones — propagation never skips dead
//     records, and watcher lists physically shrink at every reduction.
//   * PB constraint terms are flattened into one shared pool
//     (pb_terms_); each PbData row holds an offset/length into it plus the
//     cached slack and the largest coefficient. Propagation short-circuits
//     any constraint whose cached slack is at least its max coefficient:
//     such a constraint can neither be conflicting nor force a literal, so
//     its term list is never scanned.
//   * PB occurrence lists use the same flat pool layout (pb_occs_); add_pb
//     between solves appends through the pool's growth path and a rebuild
//     hook re-compacts the rows to CSR order at the next solve() entry.
//
// Learned-clause management (Glucose lineage):
//   * Every learnt clause gets an LBD (literal block distance — the number
//     of distinct decision levels among its literals) measured during the
//     backjump-level scan of analyze() (no extra pass) and stored in the
//     arena header. When a learnt clause reappears in conflict analysis
//     its LBD is recomputed — at most once per reduction cycle, throttled
//     by the used flag — and kept if smaller, so glue estimates only
//     improve.
//   * reduce_db() splits the learned DB into three tiers by current LBD:
//       core  (lbd <= tier_core_lbd, default 2): kept unconditionally —
//             glue clauses connect decision levels and are never deleted;
//       mid   (lbd <= tier_mid_lbd, default 6): kept while "used" — i.e.
//             touched by conflict analysis since the previous reduction —
//             otherwise demoted to the local pool for this round;
//       local (everything else): sorted by activity, the less active half
//             is deleted, exactly as plain MiniSat would.
//     Clauses move between tiers only through LBD improvement (promotion)
//     or the used-flag timeout (demotion); stats() reports per-tier counts
//     from the most recent reduction. Because the tiers protect exactly
//     the clauses worth keeping, the default reduction cadence is far more
//     aggressive than MiniSat's (first reduction at max(800, m/8) learnts)
//     — a small local pool is what keeps the watch lists short and the
//     propagation loop in cache.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "sat/clause_arena.h"
#include "sat/heap.h"
#include "sat/solver_engine.h"
#include "sat/watcher_pool.h"
#include "util/rng.h"
#include "util/timer.h"

namespace symcolor {

enum class RestartScheme { Luby, Geometric };

/// How conflicts whose conflicting constraint is pseudo-Boolean are
/// analyzed:
///   * Weaken — the classic PBS scheme: the PB conflict and every PB
///     reason are weakened to clauses on the fly and first-UIP clause
///     learning proceeds as usual. Cheap, but the learned clause can be
///     exponentially weaker than the PB resolvent (pigeonhole-style
///     counting arguments are lost).
///   * CuttingPlanes — Galena's native PB learning: the conflicting
///     constraint is resolved against PB (and clausal) reasons by
///     coefficient-scaled addition with saturation; reasons are weakened
///     only as far as needed to keep the resolvent conflicting, the
///     resolvent is divided by the gcd of its coefficients each step, and
///     the result is learned as a PB constraint — or as a clause when the
///     resolvent degenerates to one. All resolution arithmetic is
///     overflow-checked; a conflict whose resolvent would overflow int64
///     falls back to the Weaken path (counted in stats().pb_fallbacks),
///     so the mode is never less sound than weakening.
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

/// Search configuration. Three groups of fields:
///   * solver-profile axes — the knobs along which the paper's solvers
///     differ, set by profile_config (pb/solver_profiles.h) and varied
///     per worker by diversify_config (sat/parallel_solver.h);
///   * pipeline and parallel-engine knobs — chronological backtracking,
///     worker count and the cube schedule, set by the CLI and callers;
///   * test levers — defaults every caller keeps, which tests override to
///     reach reduction, tiering, sharing and fault paths that test-sized
///     instances do not otherwise reach.
/// Conflict, propagation and wall-clock caps are not configuration: they
/// travel per solve() call in a SolveBudget.
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
  /// Number of parallel workers; <= 1 (with cube_depth == 0) selects the
  /// plain sequential engine with zero threading overhead.
  int portfolio_threads = 1;
  /// > 0 selects the cube schedule of the parallel engine (0 = the race):
  /// lookahead probing splits the
  /// search space into assumption cubes of (up to) this depth, dealt to
  /// portfolio_threads workers from a shared queue. 0 = off. Splitting
  /// beats the racing portfolio when the instance is hard enough that one
  /// worker cannot finish a whole-space search inside the budget; racing
  /// wins on instances where diversification alone finds a short proof.
  int cube_depth = 0;

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
  /// Reproducible mode: clause sharing and cooperative cancellation off.
  /// A race runs every worker to completion and the lowest-indexed
  /// definitive answer wins; the cube schedule runs one worker in FIFO
  /// deal order. Costs the parallel speedup; meant for tests.
  bool portfolio_deterministic = false;
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
};

/// One solver instance owns a private copy of the formula's constraints.
/// Usage: construct, optionally add more constraints, then solve().
///
/// Implements SolverEngine; the virtual boundary sits at the granularity
/// of whole solve()/add_*() calls, so the propagation/analysis hot path
/// (all non-virtual private members) is unaffected by the indirection.
class CdclSolver final : public SolverEngine {
 public:
  explicit CdclSolver(const Formula& formula, SolverConfig config = {});

  /// Deep copy — the portfolio's worker-spawn path. The arena, pools and
  /// per-variable state are contiguous vectors, so this is a handful of
  /// memcpys; learned clauses, activities, saved phases and the level-0
  /// trail all carry over. Portfolio hooks (sharing sink, interrupt flag)
  /// deliberately do NOT: a clone starts unattached (PortfolioHooks
  /// resets itself on copy, which is what lets this stay = default — no
  /// hand-maintained member list to drift when state is added).
  CdclSolver(const CdclSolver& other) = default;
  CdclSolver& operator=(const CdclSolver&) = delete;

  /// Add a clause after construction (used by the optimization loop to
  /// strengthen objective bounds between calls). The solver is at level 0
  /// between solves, so the addition always happens there. Returns false
  /// if the addition makes the instance trivially unsat.
  bool add_clause(Clause clause) override;
  /// Add a PB constraint after construction (level 0, like add_clause).
  bool add_pb(PbConstraint constraint) override;

  /// Solve under optional assumptions. Returns Unknown when a resource
  /// bound ends the solve early — the budget's wall clock, conflict or
  /// propagation cap, or its interrupt() flag (the parallel engine's
  /// first-answer stop among them) — with last_trip() recording which.
  /// Asynchronous conditions are polled on a coarse cadence (every 256
  /// search steps), so interrupt latency is bounded by that many
  /// conflicts. Counted caps allow what the chain has left at entry; the
  /// spend is charged to the chain at each poll and on exit. Can be
  /// called repeatedly; learned clauses persist across calls. Every exit
  /// — Sat, Unsat (with or without a core) and every Unknown — unwinds to
  /// decision level 0, so no assumption state outlives the call: the
  /// solver is quiescent on return and the next solve() starts from the
  /// root.
  ///
  /// Entry poll / stale interrupts: solve() polls the budget before doing
  /// ANY work, and it never clears the budget's interrupt flag — the flag
  /// is sticky (see SolveBudget::interrupt()). An interrupt set after a
  /// previous solve returned therefore preempts this solve at entry with a
  /// zero-work Unknown/Interrupt. That is the intended kill-switch
  /// semantics for budgets shared across solves; an owner reusing one
  /// budget for independent solves must clear_interrupt() between them.
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
    return static_cast<int>(assigns_.size());
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
  /// Outcome of one propagation-count lookahead probe.
  struct ProbeResult {
    /// Some assumption falsified under unit propagation alone: the formula
    /// plus the probed prefix is unsatisfiable (a sound refutation — no
    /// search was involved, only propagation).
    bool refuted = false;
    /// Trail literals beyond the level-0 roots when every assumption was
    /// enqueued and propagated (assumptions included): the propagation-
    /// count hardness estimate — more forced means an easier subproblem.
    int forced = 0;
    /// Unassigned variables after root propagation, before any assumption
    /// (the denominator of the forced-fraction easiness cutoff).
    int free_vars = 0;
  };
  /// Take `assumptions` as decisions one by one under unit propagation
  /// only — no conflict analysis, no learning, no activity bumps — and
  /// report whether the prefix refutes and how much it forces. Leaves the
  /// solver quiescent (level 0) either way, so probes interleave freely
  /// with solve() calls.
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
  /// Total watcher entries across all literals (binary + long pools).
  /// After a collection this is exactly 2 * live_clauses(): no tombstone
  /// watchers survive.
  [[nodiscard]] std::size_t total_watchers() const noexcept {
    return watches_.live_entries() + bin_watches_.live_entries();
  }
  /// Slab cells owned by the watcher pools, including relocation garbage.
  /// Equals total_watchers() right after a compaction.
  [[nodiscard]] std::size_t watcher_pool_slots() const noexcept {
    return watches_.slab_slots() + bin_watches_.slab_slots();
  }
  /// Same occupancy pair for the PB occurrence pool.
  [[nodiscard]] std::size_t total_pb_occs() const noexcept {
    return pb_occs_.live_entries();
  }
  [[nodiscard]] std::size_t pb_occ_pool_slots() const noexcept {
    return pb_occs_.slab_slots();
  }
  /// Clauses currently attached (problem + learned, excluding units).
  [[nodiscard]] std::int64_t live_clauses() const noexcept {
    return arena_.live_clauses();
  }
  /// 32-bit words owned by the clause arena.
  [[nodiscard]] std::size_t arena_words() const noexcept {
    return arena_.words();
  }
  /// Census of the live learnt DB by retention tier (arena scan; see the
  /// tier thresholds in SolverConfig). Unlike stats().tier_*, which
  /// snapshots the last reduce_db(), this reflects the current instant.
  [[nodiscard]] TierCounts learned_tier_counts() const;

  /// Current decision level; 0 whenever no solve() is running.
  [[nodiscard]] int decision_level() const noexcept {
    return static_cast<int>(trail_lim_.size());
  }

 private:
  // ---- constraint storage ----
  /// Long-clause watcher. Binary clauses never appear here: they live in
  /// the dedicated bin_watches_ pool, where the blocker IS the other
  /// literal and propagation resolves the clause (satisfied / unit /
  /// conflicting) without ever touching the arena, without a tag test,
  /// and without the keep-compaction write-back of the long-row scan.
  struct Watcher {
    ClauseRef cref = kInvalidClauseRef;
    Lit blocker;
  };
  /// One PB row: a view into the shared term pool plus cached slack.
  /// Learned rows (cutting-planes resolvents) additionally carry the
  /// clause-DB management metadata — activity, an LBD equivalent (distinct
  /// decision levels among the falsified terms at learn time, improved on
  /// touch like clause glue), and the used flag — so reduce_db() can tier
  /// them exactly like learnt clauses.
  struct PbData {
    std::uint32_t terms_begin = 0;  // offset into pb_terms_
    std::uint32_t terms_len = 0;
    std::int64_t bound = 0;
    std::int64_t slack = 0;      // sum of non-false coefficients minus bound
    std::int64_t max_coeff = 0;  // terms are sorted by descending coeff
    float activity = 0.0f;       // learned rows only
    std::uint8_t lbd = 0;        // 0 on problem rows
    std::uint8_t flags = 0;      // kPbLearnt | kPbUsed | kPbDeleted
  };
  static constexpr std::uint8_t kPbLearnt = 1u << 0;
  static constexpr std::uint8_t kPbUsed = 1u << 1;
  static constexpr std::uint8_t kPbDeleted = 1u << 2;
  struct PbOcc {
    std::uint32_t pb_index = 0;
    std::int64_t coeff = 0;
  };
  [[nodiscard]] std::span<const PbTerm> pb_terms(const PbData& pb) const {
    return {pb_terms_.data() + pb.terms_begin, pb.terms_len};
  }

  // ---- reasons ----
  enum class ReasonKind : std::uint8_t { None, ClauseRef, PbRef };
  struct Reason {
    ReasonKind kind = ReasonKind::None;
    std::uint32_t index = kInvalidClauseRef;  // ClauseRef or pbs_ index
  };
  struct Conflict {
    ReasonKind kind = ReasonKind::None;
    std::uint32_t index = kInvalidClauseRef;
    [[nodiscard]] bool valid() const noexcept {
      return kind != ReasonKind::None;
    }
  };

  // ---- core operations ----
  // lit_values_ mirrors assigns_ per literal code (maintained by
  // enqueue/backtrack) so the hot value(Lit) is one byte load with no
  // sign arithmetic.
  [[nodiscard]] LBool value(Lit l) const noexcept {
    return lit_values_[static_cast<std::size_t>(l.code())];
  }
  [[nodiscard]] LBool value(Var v) const noexcept {
    return assigns_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int level(Var v) const noexcept {
    return vardata_[static_cast<std::size_t>(v)].level;
  }

  void enqueue(Lit l, Reason reason);
  Conflict propagate();
  Conflict propagate_pb_for(Lit falsified);

  /// Visit every literal of `implied`'s reason except `implied` itself,
  /// without materializing a vector (this runs millions of times per
  /// solve — analyze and minimize are reason-iteration bound). `visit`
  /// returns false to abort; the call then returns false. For PB reasons
  /// the clausal weakening only admits literals falsified strictly before
  /// `implied` — anything later would let analyze() chase implications
  /// forward and deadlock — or all false literals for a conflict
  /// (implied == undef), mirroring the classic PBS scheme.
  template <typename Visit>
  bool for_each_reason_lit(Reason reason, Lit implied, Visit&& visit) const {
    if (reason.kind == ReasonKind::ClauseRef) {
      const std::uint32_t* codes = arena_.lit_codes(reason.index);
      const int size = arena_.size(reason.index);
      for (int i = 0; i < size; ++i) {
        const Lit l = Lit::from_code(static_cast<int>(codes[i]));
        if (l != implied && !visit(l)) return false;
      }
      return true;
    }
    const PbData& pb = pbs_[reason.index];
    const int implied_pos =
        implied.valid()
            ? vardata_[static_cast<std::size_t>(implied.var())].trail_pos
            : static_cast<int>(trail_.size());
    for (const PbTerm& t : pb_terms(pb)) {
      if (t.lit == implied) continue;
      if (value(t.lit) != LBool::False) continue;
      if (vardata_[static_cast<std::size_t>(t.lit.var())].trail_pos >=
          implied_pos) {
        continue;
      }
      if (!visit(t.lit)) return false;
    }
    return true;
  }
  /// First-UIP learning. Also reports the learnt clause's LBD, folded into
  /// the backjump-level scan so the glue costs no extra pass.
  void analyze(Conflict conflict, std::vector<Lit>* learnt, int* backjump,
               int* lbd);
  /// Final-conflict analysis (MiniSat's analyzeFinal over assumption
  /// pseudo-decisions): called when pending assumption `failed` is already
  /// false under the assumption prefix taken so far. Walks reasons from
  /// ~failed back through the trail; every reason-less (pseudo-decision)
  /// literal reached is an assumption the conflict depends on. Fills
  /// core_ with `failed` plus those assumptions — a subset of the
  /// caller's assumptions that is jointly unsatisfiable with the formula.
  /// Must run before the exit backtrack(0).
  void analyze_final(Lit failed);

  // ---- cutting-planes PB conflict analysis ----
  /// What analyze_pb produced. Learned carries either a PB resolvent
  /// (terms + degree) or, when the resolvent degenerates (all saturated
  /// coefficients equal the degree after gcd division), a clause —
  /// including units. Fallback asks the caller to run the clausal
  /// weakening path on the original conflict; Unsat means the resolvent
  /// conflicts at decision level 0.
  enum class PbOutcome : std::uint8_t { Learned, Fallback, Unsat };
  struct PbLearned {
    bool is_clause = false;
    std::vector<Lit> clause;     // valid when is_clause
    std::vector<PbTerm> terms;   // valid when !is_clause (desc coeff order)
    std::int64_t degree = 0;
    int backjump = 0;
    int glue = 1;
  };
  /// Resolve the conflicting PB constraint against the reasons on the
  /// trail by coefficient-scaled addition with saturation and gcd
  /// rounding, weakening reasons just enough to keep the resolvent
  /// conflicting, until the resolvent is assertive below the current
  /// decision level. Overflow-checked throughout; returns Fallback rather
  /// than risking an unsound resolvent.
  PbOutcome analyze_pb(Conflict conflict, PbLearned* out);
  /// Load a conflict/reason constraint into the resolvent accumulator
  /// (cp_* members), applying level-0 strengthening. Returns false on
  /// overflow.
  bool cp_load(Conflict conflict);
  /// Slack of the resolvent under the full current assignment.
  [[nodiscard]] std::int64_t cp_slack_full() const;
  /// True when the resolvent propagates or conflicts at some level below
  /// the current one (the PB generalization of the 1UIP stop condition).
  [[nodiscard]] bool cp_assertive() const;
  /// Weaken every non-false term out of the resolvent and saturate (used
  /// when the walk reaches a decision; keeps the resolvent conflicting).
  bool cp_weaken_nonfalse();
  /// Saturate resolvent coefficients at the degree and divide the whole
  /// resolvent by the gcd of its coefficients (degree rounds up).
  bool cp_saturate_and_divide();
  /// Reduce `reason` (of trail literal l at trail position pos_l) into
  /// cp_reason_/cp_reason_degree_: keep l plus literals falsified strictly
  /// before pos_l, weaken the rest as needed until the planned resolvent
  /// is guaranteed conflicting. On success cp_reason_[0] is l's own term.
  /// Returns false on degenerate reasons (caller falls back).
  bool cp_reduce_reason(Reason reason, Lit l, int pos_l);
  /// The backjump level of an assertive resolvent: the lowest level at
  /// which it still propagates or conflicts. Non-const: uses the
  /// cp_bj_* member scratch.
  [[nodiscard]] int cp_backjump_level();
  /// Attach a learned PB constraint at the current (post-backjump) level;
  /// returns its index. Terms must be sorted by descending coefficient.
  std::uint32_t attach_learned_pb(std::span<const PbTerm> terms,
                                  std::int64_t degree, int glue);
  /// Activity bump + used-flag maintenance for a learned PB touched by
  /// conflict analysis (the PB analog of bump_clause + touch_learnt).
  void bump_pb(std::uint32_t pb_index);
  /// Drop cold learned PB rows by tier/activity (rows serving as trail
  /// reasons are retained), then compact pbs_, pb_terms_ and pb_occs_ and
  /// remap trail PbRef reasons — the PB analog of the clause arena GC.
  void reduce_learned_pbs();
  void minimize_learnt(std::vector<Lit>* learnt);
  void backtrack(int target_level);
  /// Fire reduce_db() once the learnt DB reaches max_learnts_, then grow
  /// the limit.
  void maybe_reduce();
  Lit pick_branch();
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }

  /// The load path: every problem clause and PB row, from the constructor
  /// or from add_clause/add_pb between solves, enters through these two.
  /// A clause is copied once into the reusable load_lits_ buffer, sorted,
  /// deduplicated and simplified against the level-0 assignment in place,
  /// then attached in that sorted order — MiniSat's addClause_, which adds
  /// "without making superfluous internal copy". So loading a formula
  /// costs no heap allocation per clause. A PB row is read through the
  /// reference; one that degenerates to a clause goes through the buffer.
  /// Each returns false once level-0 unsatisfiability is derived.
  bool load_clause(std::span<const Lit> lits);
  bool load_pb(const PbConstraint& constraint);
  /// load_clause on the literals already in load_lits_.
  bool load_buffered_clause();
  ClauseRef attach_clause(std::span<const Lit> lits, bool learnt);
  /// Shared storage path of load_pb/attach_learned_pb: append the row
  /// and its terms/occurrences, computing slack under the current
  /// assignment. Terms must be sorted by descending coefficient.
  std::uint32_t attach_pb_row(std::span<const PbTerm> terms,
                              std::int64_t bound);
  void bump_var(Var v);
  void bump_clause(ClauseRef cref);
  void decay_activities();
  /// Retention tier of a learnt clause under the configured thresholds.
  /// Binary clauses are core regardless of glue: they are two words of
  /// storage propagated without arena access, never worth deleting.
  enum class Tier : std::uint8_t { Core, Mid, Local };
  [[nodiscard]] Tier clause_tier(ClauseRef cref) const {
    if (arena_.size(cref) <= 2 || arena_.lbd(cref) <= config_.tier_core_lbd) {
      return Tier::Core;
    }
    return arena_.lbd(cref) <= config_.tier_mid_lbd ? Tier::Mid : Tier::Local;
  }
  void reduce_db();
  void garbage_collect();
  [[nodiscard]] bool clause_locked(ClauseRef cref) const;

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
  /// cursors (must be at decision level 0 — restart boundaries and solve
  /// entry). The importer re-checks its own size/LBD admission caps
  /// (share_max_lbd and the fixed size cap; rejections counted in
  /// stats().rejected_imports), and a foreign constraint that is empty —
  /// or falsified — under the level-0 assignment derives unsatisfiability
  /// explicitly. Returns false when an import derives level-0
  /// unsatisfiability.
  bool drain_imports();

  // ---- state ----
  SolverConfig config_;
  SolverStats stats_;
  Rng rng_;

  ClauseArena arena_;
  FlatOccPool<Watcher> watches_;                // long clauses, by lit code
  FlatOccPool<Watcher> bin_watches_;            // binary clauses, by lit code
  std::vector<PbData> pbs_;
  std::vector<PbTerm> pb_terms_;                // shared flat term pool
  FlatOccPool<PbOcc> pb_occs_;                  // rows by literal code
  /// Set by attach_pb_row(); solve() re-compacts the occurrence pool to
  /// CSR order before searching (the incremental add_pb rebuild hook).
  bool pb_occs_dirty_ = false;

  std::vector<LBool> assigns_;      // by variable (model extraction)
  std::vector<LBool> lit_values_;   // by literal code (hot-path lookups)
  struct VarData {
    Reason reason;
    int level = 0;
    int trail_pos = -1;
  };
  std::vector<VarData> vardata_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  int qhead_ = 0;

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  double pb_inc_ = 1.0;  // learned-PB activity increment (same decay)
  ActivityHeap order_;  // owns the VSIDS score array (order_.scores())
  std::vector<char> polarity_;  // saved phase, 1 = last value true

  std::vector<Lit> load_lits_;  // load path scratch (load_clause)
  std::vector<char> seen_;      // scratch for analyze()
  std::vector<Var> analyze_toclear_;            // marks to reset post-analyze
  std::vector<std::uint64_t> lbd_level_stamp_;  // by level, for LBD scans
  std::uint64_t lbd_stamp_ = 0;

  // Cutting-planes resolvent accumulator (analyze_pb scratch, hoisted to
  // members). The resolvent is a map var -> (coefficient, literal
  // orientation) held as dense arrays plus the active-var list. A var
  // cancelled to coefficient 0 stays in cp_vars_ (with cp_in_ still set)
  // so a later reason can reintroduce it without duplicate list entries;
  // every iteration skips zero-coefficient vars.
  std::vector<std::int64_t> cp_coef_;  // by var; 0 = absent/cancelled
  std::vector<Lit> cp_lit_;            // by var; the term's literal
  std::vector<char> cp_in_;            // by var; member of cp_vars_
  std::vector<Var> cp_vars_;           // active vars, unordered
  std::int64_t cp_degree_ = 0;
  std::vector<PbTerm> cp_reason_;      // reduced-reason scratch
  std::vector<PbTerm> cp_cands_;       // weakening-candidate scratch
  std::int64_t cp_reason_degree_ = 0;
  // cp_backjump_level scratch: assigned terms bucketed by level plus the
  // suffix maxima of their coefficients (hoisted — one learned PB
  // conflict calls this once, and the hot path must not heap-allocate).
  struct BjEnt {
    int lvl;
    std::int64_t coeff;
    bool falsified;
  };
  std::vector<BjEnt> cp_bj_ents_;
  std::vector<std::int64_t> cp_bj_suffix_;

  /// Portfolio attachment (sharing sink, worker identity). Self-resetting
  /// on copy: a cloned solver must start detached — these point into the
  /// spawning portfolio's solve() frame — and
  /// encoding that here keeps the solver's copy constructor defaultable.
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
  /// Record a budgeted exit (trip kind + stats counter) and unwind to
  /// level 0; every Unknown return of solve() funnels through this.
  SolveResult budget_exit(BudgetTrip trip);
  BudgetTrip last_trip_ = BudgetTrip::None;
  bool ok_ = true;  // false once level-0 conflict derived
  std::int64_t learnt_count_ = 0;
  double max_learnts_ = 0.0;
};

}  // namespace symcolor
