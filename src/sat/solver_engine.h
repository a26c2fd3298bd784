#pragma once
// SolverEngine — the abstract backend interface of the solve pipeline.
//
// Every consumer of SAT/PB solving in this codebase (the 0-1 ILP
// optimization loops in pb/optimizer, the incremental SAT-loop colorer in
// coloring/exact_colorer, the CLI) drives a solver exclusively through this
// interface: add constraints, solve under assumptions, read the model,
// the failed-assumption core and stats, clone. Assumptions are the
// universal retraction mechanism of the pipeline — every optimization
// loop expresses "objective <= W" as a single assumption on a selector
// ladder and keeps ONE engine (and its learned state) across all probes;
// last_core() is what lets core-guided search lift lower bounds from
// Unsat answers. The two implementations are
//   * CdclSolver (sat/cdcl.h) — the sequential CDCL(+PB) engine, and
//   * ParallelSolver (sat/parallel_solver.h) — N diversified CdclSolver
//     workers spawned by cloning one master, on threads with core-clause
//     exchange, either racing on the whole query or conquering a
//     lookahead cube partition.
// make_solver_engine (sat/parallel_solver.h) picks between them from
// SolverConfig::portfolio_threads and cube_depth, so a knob anywhere in
// the pipeline swaps the whole backend without the caller changing shape.
//
// Design constraint: the interface is deliberately coarse — one virtual
// call per solve/add, never per propagation or per conflict. The CDCL hot
// path (propagate/analyze/backtrack) stays in non-virtual private members
// of the concrete solver, so interposing this interface costs nothing
// measurable on propagation throughput.
//
// ClauseExchange is the bounded clause pool the parallel engine hands its
// workers: export_clause() publishes a freshly learnt core-tier clause,
// import_clauses() drains every clause published by other workers since
// the caller's cursor (learned PB rows travel the same way through
// export_pb()/import_pbs()). Workers call it only at learn time (exports
// are throttled to glue clauses, LBD <= SolverConfig::share_max_lbd) and
// at restart boundaries (imports happen at decision level 0, where a
// plain level-0 clause addition is sound).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "util/budget.h"
#include "util/timer.h"

namespace symcolor {

struct SolverConfig;

enum class SolveResult { Sat, Unsat, Unknown };

struct SolverStats {
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  std::int64_t restarts = 0;
  std::int64_t learned_clauses = 0;
  std::int64_t learned_literals = 0;
  std::int64_t minimized_literals = 0;
  std::int64_t deleted_clauses = 0;
  /// Arena garbage collections performed by reduce_db().
  std::int64_t arena_collections = 0;
  /// PB constraints skipped because slack >= max coefficient.
  std::int64_t pb_short_circuits = 0;

  // ---- LBD / tier activity ----
  /// Sum of LBD values at learn time (lbd_sum / learned_clauses = mean glue).
  std::int64_t lbd_sum = 0;
  /// LBD improvements observed when re-touching learnt clauses in analysis.
  std::int64_t tier_promotions = 0;
  /// Mid-tier clauses demoted to the local pool for going unused between
  /// consecutive reductions.
  std::int64_t tier_demotions = 0;
  /// Per-tier learnt-clause counts recorded by the most recent reduce_db().
  std::int64_t tier_core = 0;
  std::int64_t tier_mid = 0;
  std::int64_t tier_local = 0;

  // ---- portfolio clause exchange ----
  /// Learnt clauses this solver published to its ClauseExchange.
  std::int64_t exported_clauses = 0;
  /// Clauses this solver absorbed from other portfolio workers.
  std::int64_t imported_clauses = 0;
  /// Foreign clauses/PB rows dropped at import time for failing the
  /// importer's own size/LBD caps (share_max_lbd and the fixed size cap
  /// re-checked on arrival — diversified workers need not trust the
  /// exporter's thresholds).
  std::int64_t rejected_imports = 0;
  /// Learned PB rows (cutting-planes resolvents) this solver published to
  /// its ClauseExchange.
  std::int64_t exported_pbs = 0;
  /// Learned PB rows this solver absorbed from other portfolio workers.
  std::int64_t imported_pbs = 0;

  // ---- PB conflict analysis (cutting planes) ----
  /// PB constraints learned by cutting-planes conflict analysis.
  std::int64_t learned_pbs = 0;
  /// Learned PB constraints deleted by reduce_db().
  std::int64_t deleted_pbs = 0;
  /// Cutting-planes resolution steps performed across all analyses.
  std::int64_t pb_resolutions = 0;
  /// PB conflicts where cutting-planes analysis bailed to the clausal
  /// weakening path (coefficient overflow, degenerate resolvent).
  std::int64_t pb_fallbacks = 0;

  // ---- cube-and-conquer scheduling ----
  /// Cubes the lookahead generator dealt to the conquer workers (children
  /// re-dealt by work-stealing splits are counted under cube_splits).
  std::int64_t cubes_dealt = 0;
  /// Cubes refuted — solved Unsat by a worker or killed by a lookahead
  /// probe during a split.
  std::int64_t cubes_refuted = 0;
  /// Queued sibling cubes pruned because a refuted cube's UNSAT core used
  /// only a subset of the cube's literals (core-driven subsumption).
  std::int64_t cube_siblings_pruned = 0;
  /// Stuck cubes split and re-dealt after tripping their conflict slice.
  std::int64_t cube_splits = 0;

  // ---- compat residue: always 0 ----
  /// Always 0; only suitebench's workloads.cpp reads it (deleted by
  /// ROADMAP item 1c's [benchmark] PR).
  std::int64_t inprocess_rounds = 0;
  /// Always 0; only suitebench's workloads.cpp reads it (deleted by
  /// ROADMAP item 1c's [benchmark] PR).
  std::int64_t vivified_clauses = 0;

  // ---- resource-control exits (which budget ended a solve early) ----
  /// Unknown exits because the wall-clock deadline ran out.
  std::int64_t deadline_exits = 0;
  /// Unknown exits because the conflict budget ran out.
  std::int64_t conflict_budget_exits = 0;
  /// Unknown exits because the propagation budget ran out.
  std::int64_t prop_budget_exits = 0;
  /// Unknown exits because interrupt() fired (async preemption or the
  /// parallel engine's first-answer stop).
  std::int64_t interrupt_exits = 0;

  // ---- incremental hot path (chronological backtracking) ----
  /// Conflicts resolved by undoing only the conflicting level instead of
  /// jumping all the way back to the 1UIP assertion level.
  std::int64_t chrono_backtracks = 0;
  /// Always 0; only suitebench's workloads.cpp reads it (deleted by
  /// ROADMAP item 1c's [benchmark] PR).
  std::int64_t reused_trail_literals = 0;
  /// Trail literals between the 1UIP assertion level and the conflicting
  /// level that a chronological backtrack did not undo — assignments the
  /// solver would otherwise have discarded and re-derived.
  std::int64_t saved_propagations = 0;
};

namespace detail {

/// Apply `f(into_field, from_field)` to every counter pair of two
/// SolverStats. The single enumeration point for field-wise arithmetic —
/// add a counter to SolverStats and the compiler forces it through here.
template <typename F>
void for_each_stat(SolverStats& into, const SolverStats& from, F&& f) {
  f(into.decisions, from.decisions);
  f(into.propagations, from.propagations);
  f(into.conflicts, from.conflicts);
  f(into.restarts, from.restarts);
  f(into.learned_clauses, from.learned_clauses);
  f(into.learned_literals, from.learned_literals);
  f(into.minimized_literals, from.minimized_literals);
  f(into.deleted_clauses, from.deleted_clauses);
  f(into.arena_collections, from.arena_collections);
  f(into.pb_short_circuits, from.pb_short_circuits);
  f(into.lbd_sum, from.lbd_sum);
  f(into.tier_promotions, from.tier_promotions);
  f(into.tier_demotions, from.tier_demotions);
  f(into.tier_core, from.tier_core);
  f(into.tier_mid, from.tier_mid);
  f(into.tier_local, from.tier_local);
  f(into.exported_clauses, from.exported_clauses);
  f(into.imported_clauses, from.imported_clauses);
  f(into.rejected_imports, from.rejected_imports);
  f(into.exported_pbs, from.exported_pbs);
  f(into.imported_pbs, from.imported_pbs);
  f(into.learned_pbs, from.learned_pbs);
  f(into.deleted_pbs, from.deleted_pbs);
  f(into.pb_resolutions, from.pb_resolutions);
  f(into.pb_fallbacks, from.pb_fallbacks);
  f(into.cubes_dealt, from.cubes_dealt);
  f(into.cubes_refuted, from.cubes_refuted);
  f(into.cube_siblings_pruned, from.cube_siblings_pruned);
  f(into.cube_splits, from.cube_splits);
  f(into.inprocess_rounds, from.inprocess_rounds);
  f(into.vivified_clauses, from.vivified_clauses);
  f(into.deadline_exits, from.deadline_exits);
  f(into.conflict_budget_exits, from.conflict_budget_exits);
  f(into.prop_budget_exits, from.prop_budget_exits);
  f(into.interrupt_exits, from.interrupt_exits);
  f(into.chrono_backtracks, from.chrono_backtracks);
  f(into.reused_trail_literals, from.reused_trail_literals);
  f(into.saved_propagations, from.saved_propagations);
}

}  // namespace detail

/// Fold `delta` field-wise into `*into`. The parallel engine uses this to
/// sum every worker's counters into one aggregated view.
inline void accumulate_stats(SolverStats* into, const SolverStats& delta) {
  detail::for_each_stat(
      *into, delta, [](std::int64_t& a, const std::int64_t b) { a += b; });
}

/// Field-wise `after - before`. Worker clones inherit the master's
/// cumulative counters at clone time; the delta is the work the clone did
/// on its own since.
[[nodiscard]] inline SolverStats stats_delta(SolverStats after,
                                             const SolverStats& before) {
  detail::for_each_stat(
      after, before, [](std::int64_t& a, const std::int64_t b) { a -= b; });
  return after;
}

/// A clause in transit between portfolio workers, tagged with the glue the
/// exporter measured at learn time so the importer can apply its own
/// size/LBD admission caps before attaching.
struct SharedClause {
  Clause lits;
  int lbd = 0;
};

/// A learned PB row in transit between portfolio workers: a cutting-planes
/// resolvent (sum terms >= degree, terms in descending-coefficient order)
/// tagged with its learn-time glue equivalent. Like learnt clauses, these
/// rows are consequences of the shared formula — conflict analysis never
/// resolves on assumption pseudo-decisions — so an importer may attach one
/// as an ordinary level-0 PB addition.
struct SharedPb {
  std::vector<PbTerm> terms;
  std::int64_t degree = 0;
  int lbd = 0;
};

/// Bounded, sharded constraint pool between parallel workers, safe to
/// call from every worker thread concurrently. Each worker publishes into
/// its OWN shard (one short lock nobody else writes under), so two
/// exporters never contend with each other — only an importer scanning a
/// shard contends with that shard's single producer. A global atomic
/// sequence counter per lane stamps every accepted entry; importers
/// snapshot the counter as a horizon and drain `[cursor, horizon)` from
/// every foreign shard, which is race-free because an entry's sequence
/// number is claimed inside its shard's critical section — once an
/// importer holds a shard's lock, every entry of that shard below the
/// snapshotted horizon is fully published. Clauses and learned PB rows
/// travel in separate lanes, each bounded by `capacity`; exports past it
/// are counted and dropped (bounding both memory and import work).
class ClauseExchange {
 public:
  /// `num_workers` sizes the shard array; worker ids outside
  /// [0, num_workers) share the last shard (correct, merely slower). The
  /// default covers direct test construction with small worker ids.
  explicit ClauseExchange(std::size_t capacity, int num_workers = 8)
      : shards_(num_workers > 0 ? static_cast<std::size_t>(num_workers) : 1),
        capacity_(capacity) {}

  /// Publish a learnt clause (already minimized; lbd is its glue at learn
  /// time). `worker` identifies the exporter so it can skip its own
  /// clauses on import. Returns whether the clause was accepted into the
  /// pool (false once the lane is full).
  bool export_clause(int worker, std::span<const Lit> lits, int lbd);
  /// Append every clause published since `*cursor` by a worker other than
  /// `worker` to `out` (with its learn-time glue), and advance the cursor
  /// past them.
  void import_clauses(int worker, std::size_t* cursor,
                      std::vector<SharedClause>* out);
  /// Publish a learned PB row (a cutting-planes resolvent; terms in
  /// descending-coefficient order, glue measured at learn time).
  bool export_pb(int worker, std::span<const PbTerm> terms,
                 std::int64_t degree, int lbd);
  /// The PB-row counterpart of import_clauses().
  void import_pbs(int worker, std::size_t* cursor,
                  std::vector<SharedPb>* out);

  [[nodiscard]] std::size_t exported() const;
  [[nodiscard]] std::size_t exported_pbs() const;
  [[nodiscard]] std::size_t dropped() const;

 private:
  struct Entry {
    int worker;
    std::size_t seq;
    SharedClause clause;
  };
  struct PbEntry {
    int worker;
    std::size_t seq;
    SharedPb pb;
  };
  /// One producer's lane pair. Entries are appended in increasing seq
  /// order (claims happen under this mutex), so imports binary-search
  /// their cursor.
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries;
    std::vector<PbEntry> pb_entries;
  };

  [[nodiscard]] Shard& shard_for(int worker) {
    const auto i = worker >= 0 ? static_cast<std::size_t>(worker) : 0;
    return shards_[std::min(i, shards_.size() - 1)];
  }

  std::vector<Shard> shards_;
  std::size_t capacity_;
  /// Sequence numbers claimed per lane (accepted = min(claimed, capacity);
  /// claims at or past capacity are drops).
  std::atomic<std::size_t> next_seq_{0};
  std::atomic<std::size_t> next_pb_seq_{0};
  std::atomic<std::size_t> dropped_{0};
};

/// Abstract solve backend: incremental constraint addition, assumption
/// solving, model/stats access, and cloning. See the header comment for
/// the layering contract.
class SolverEngine {
 public:
  virtual ~SolverEngine() = default;

  /// Add a clause between solves (level-0 only). Returns false if the
  /// addition makes the instance trivially unsat.
  virtual bool add_clause(Clause clause) = 0;
  /// Add a PB constraint between solves (level-0 only).
  virtual bool add_pb(PbConstraint constraint) = 0;

  /// Solve under optional assumptions. Returns Unknown when the budget
  /// ends the solve early — wall clock, conflict or propagation cap, or
  /// an asynchronous interrupt(); last_trip() reports which. Can be called
  /// repeatedly; learned state persists across calls. No assumption state
  /// outlives the call: every exit returns to decision level 0, so the
  /// solver is quiescent (clone() is valid) and a later solve() with
  /// different assumptions starts clean.
  virtual SolveResult solve(const SolveBudget& budget = {},
                            std::span<const Lit> assumptions = {}) = 0;

  /// Which resource bound ended the last solve() early; None after a
  /// definitive Sat/Unsat answer (and before the first solve).
  [[nodiscard]] virtual BudgetTrip last_trip() const noexcept = 0;

  /// Complete model from the last Sat answer, indexed by variable.
  [[nodiscard]] virtual const std::vector<LBool>& model() const noexcept = 0;

  /// Failed-assumption core from the last Unsat answer: a subset of the
  /// assumptions passed to that solve() whose conjunction is already
  /// unsatisfiable with the formula (final-conflict analysis over the
  /// assumption pseudo-decisions, MiniSat's analyzeFinal). Empty when the
  /// formula is unsatisfiable on its own — an empty core is the
  /// Unsat-without-assumptions certificate — and after Sat/Unknown.
  [[nodiscard]] virtual std::span<const Lit> last_core() const noexcept = 0;

  [[nodiscard]] virtual const SolverStats& stats() const noexcept = 0;

  /// Aggregated view across every worker the engine ran: the field-wise sum
  /// of the master's and all clones' counters, cumulative across solve()
  /// calls. For a sequential engine this IS stats(); the parallel engine
  /// overrides it so the losers' search — most of the work in a race —
  /// stays measurable instead of being dropped with the losing workers.
  [[nodiscard]] virtual const SolverStats& aggregated_stats() const noexcept {
    return stats();
  }

  [[nodiscard]] virtual int num_vars() const noexcept = 0;

  /// Deep copy of the full solver state — constraints, learned clauses,
  /// activities, saved phases, root trail. Must only be called at a
  /// quiescent point (between solve() calls). The clone is independent:
  /// solving one never touches the other.
  [[nodiscard]] virtual std::unique_ptr<SolverEngine> clone() const = 0;

  /// Swap the configuration of a live engine at a quiescent point, keeping
  /// learned state (clauses, activities, saved phases). This is what makes
  /// warm-start caching work: a service clones a preprocessed master and
  /// then reconfigures the clone with the request's own knobs (budget
  /// personality, fault injection, thread count is fixed at construction)
  /// without rebuilding or disturbing the cached engine.
  virtual void reconfigure(const SolverConfig& config) = 0;
};

}  // namespace symcolor
