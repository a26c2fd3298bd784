#include "sat/parallel_solver.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sat/cubes.h"

namespace symcolor {

std::uint64_t mix_worker_seed(std::uint64_t base_seed, int worker) {
  if (worker == 0) return base_seed;
  // SplitMix64 finalizer over (seed, index): a one-bit change in either
  // input decorrelates the whole output, so consecutive worker indices
  // (and the small hand-picked seeds of the solver profiles) never yield
  // overlapping SplitMix streams.
  std::uint64_t z = base_seed +
                    0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(worker);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SolverConfig diversify_config(const SolverConfig& base, int index) {
  SolverConfig c = base;
  if (index == 0) return c;
  c.random_seed = mix_worker_seed(base.random_seed, index);
  switch (index % 4) {
    case 1:
      // SAT-dense personality: adaptive restarts guarded by trail-size
      // blocking — hangs on to deep trails instead of restarting them.
      // Also flips to native cutting-planes PB learning, so on PB-heavy
      // instances the portfolio always races both analysis modes
      // (a no-op on purely clausal formulas).
      c.restart_scheme = RestartScheme::Adaptive;
      c.restart_blocking = true;
      c.pb_analysis = PbAnalysis::CuttingPlanes;
      break;
    case 2:
      // Slow-and-steady: gentle geometric restarts with the
      // conflict-interval reduce schedule (keeps more clauses early).
      // Explicitly pins clause-weakening PB analysis so a CuttingPlanes
      // base (the Galena profile) still races a weakening worker.
      c.restart_scheme = RestartScheme::Geometric;
      c.restart_base = 100;
      c.restart_growth = 1.3;
      c.reduce_scheme = ReduceScheme::ConflictInterval;
      c.pb_analysis = PbAnalysis::Weaken;
      break;
    case 3:
      // Scrambler: rapid Luby restarts, positive fixed-phase branching
      // (the opposite of the coloring-tuned negative default), a dash of
      // random decisions.
      c.restart_scheme = RestartScheme::Luby;
      c.restart_base = 32;
      c.phase_saving = false;
      c.default_phase = true;
      c.random_branch_freq = std::max(0.02, base.random_branch_freq);
      break;
    default:
      // index % 4 == 0 (workers 4, 8, ...): the base personality with a
      // tighter reduce cadence and deeper minimization.
      c.max_learnts_init = 512;
      c.minimize_recursive = true;
      break;
  }
  return c;
}

bool ClauseExchange::export_clause(int worker, std::span<const Lit> lits,
                                   int lbd) {
  Shard& shard = shard_for(worker);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  // The sequence number is claimed INSIDE the shard's critical section:
  // an importer that later observes next_seq_ >= seq and locks this shard
  // is therefore guaranteed to see the append below (see the class
  // comment for the full argument).
  const std::size_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
  if (seq >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The exporter already filtered on its own glue cap; the learn-time LBD
  // rides along so every importer can re-apply its own admission caps.
  shard.entries.push_back({worker, seq, {Clause(lits.begin(), lits.end()), lbd}});
  return true;
}

void ClauseExchange::import_clauses(int worker, std::size_t* cursor,
                                    std::vector<SharedClause>* out) {
  const std::size_t horizon =
      std::min(next_seq_.load(std::memory_order_acquire), capacity_);
  if (*cursor >= horizon) return;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = std::lower_bound(
        shard.entries.begin(), shard.entries.end(), *cursor,
        [](const Entry& e, std::size_t c) { return e.seq < c; });
    for (; it != shard.entries.end() && it->seq < horizon; ++it) {
      if (it->worker == worker) continue;  // own export
      out->push_back(it->clause);
    }
  }
  *cursor = horizon;
}

bool ClauseExchange::export_pb(int worker, std::span<const PbTerm> terms,
                               std::int64_t degree, int lbd) {
  Shard& shard = shard_for(worker);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const std::size_t seq =
      next_pb_seq_.fetch_add(1, std::memory_order_acq_rel);
  if (seq >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.pb_entries.push_back(
      {worker, seq,
       {std::vector<PbTerm>(terms.begin(), terms.end()), degree, lbd}});
  return true;
}

void ClauseExchange::import_pbs(int worker, std::size_t* cursor,
                                std::vector<SharedPb>* out) {
  const std::size_t horizon =
      std::min(next_pb_seq_.load(std::memory_order_acquire), capacity_);
  if (*cursor >= horizon) return;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = std::lower_bound(
        shard.pb_entries.begin(), shard.pb_entries.end(), *cursor,
        [](const PbEntry& e, std::size_t c) { return e.seq < c; });
    for (; it != shard.pb_entries.end() && it->seq < horizon; ++it) {
      if (it->worker == worker) continue;  // own export
      out->push_back(it->pb);
    }
  }
  *cursor = horizon;
}

std::size_t ClauseExchange::exported() const {
  return std::min(next_seq_.load(std::memory_order_acquire), capacity_);
}

std::size_t ClauseExchange::exported_pbs() const {
  return std::min(next_pb_seq_.load(std::memory_order_acquire), capacity_);
}

std::size_t ClauseExchange::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

namespace {

/// Whether `fault` is armed for a worker other than `index` (a negative
/// target arms every worker).
bool aimed_elsewhere(const FaultInjection& fault, int index) {
  return fault.armed() && fault.worker >= 0 && fault.worker != index;
}

/// Worker `index`'s configuration: diversified, carrying the fault spec
/// only when the spec targets this worker.
SolverConfig worker_config(const SolverConfig& base, int index) {
  SolverConfig c = diversify_config(base, index);
  if (aimed_elsewhere(c.fault_injection, index)) c.fault_injection = {};
  return c;
}

bool contains(const std::vector<Lit>& lits, Lit l) {
  return std::find(lits.begin(), lits.end(), l) != lits.end();
}

}  // namespace

struct ParallelSolver::Pool {
  /// Worker 0 is `master`; 1..n-1 are diversified clones of its current
  /// state, so constraints added between calls (and whatever the master
  /// learned or imported so far) carry over.
  Pool(CdclSolver& master, const SolverConfig& config, int n)
      : clone_base(master.stats()),
        exchange(config.portfolio_buffer, n),
        results(static_cast<std::size_t>(n), SolveResult::Unknown),
        trips(static_cast<std::size_t>(n), BudgetTrip::None),
        faults(static_cast<std::size_t>(n)) {
    workers.push_back(&master);
    for (int i = 1; i < n; ++i) {
      clones.push_back(std::make_unique<CdclSolver>(master));
      clones.back()->reconfigure(worker_config(config, i));
      workers.push_back(clones.back().get());
    }
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers.size()); }

  /// Worker `i` answered the whole query; the first claim stops the rest.
  void claim(int i, SolveResult r) {
    results[static_cast<std::size_t>(i)] = r;
    int none = -1;
    if (first.compare_exchange_strong(none, i)) stop.store(true);
  }

  /// The first claim — or, in deterministic mode, where every worker ran
  /// to completion, the lowest-indexed definitive answer, which repeated
  /// runs reproduce. Dead workers never claim, so they never win.
  [[nodiscard]] int winner(bool deterministic) const {
    if (!deterministic) return first.load();
    const auto it = std::find_if(results.begin(), results.end(), [](auto r) {
      return r != SolveResult::Unknown;
    });
    return it == results.end() ? -1 : static_cast<int>(it - results.begin());
  }

  /// The lowest-indexed worker's recorded budget condition (None if no
  /// worker recorded one).
  [[nodiscard]] BudgetTrip first_trip() const {
    const auto it = std::find_if(trips.begin(), trips.end(), [](auto t) {
      return t != BudgetTrip::None;
    });
    return it == trips.end() ? BudgetTrip::None : *it;
  }

  /// Run `body(i, worker)` on every worker behind an exception barrier:
  /// worker 0 on the calling thread, the clones on their own threads.
  /// Unless deterministic, workers share through the exchange and poll
  /// the stop flag.
  template <typename Body>
  void run(bool deterministic, Body body) {
    const bool share = size() > 1 && !deterministic;
    const auto guarded = [&](int i) {
      CdclSolver& worker = *workers[static_cast<std::size_t>(i)];
      try {
        if (share) {
          worker.set_sharing(&exchange, i);
          worker.set_interrupt(&stop);
        }
        body(i, worker);
      } catch (...) {
        // Exception barrier: record the death and leave the others
        // running — the survivors still own the answer.
        faults[static_cast<std::size_t>(i)] = std::current_exception();
      }
    };
    std::vector<std::thread> threads;
    std::exception_ptr spawn_error;
    try {
      for (int i = 1; i < size(); ++i) threads.emplace_back(guarded, i);
    } catch (...) {
      // Thread creation failed (resource exhaustion): wave off the clones
      // already running and join them before unwinding — destroying a
      // joinable std::thread would terminate the process.
      spawn_error = std::current_exception();
      stop.store(true);
    }
    if (!spawn_error) guarded(0);
    for (std::thread& t : threads) t.join();
    // The exchange and stop flag die with the pool; the master persists.
    workers[0]->set_sharing(nullptr, 0);
    workers[0]->set_interrupt(nullptr);
    if (spawn_error) std::rethrow_exception(spawn_error);
  }

  std::vector<std::unique_ptr<CdclSolver>> clones;
  std::vector<CdclSolver*> workers;
  /// The master's cumulative counters, which every clone inherited.
  SolverStats clone_base;
  ClauseExchange exchange;
  std::atomic<bool> stop{false};
  std::atomic<int> first{-1};
  /// Per worker: its answer to the whole query (Unknown unless claimed),
  /// the global budget condition that ended its run, and its death.
  std::vector<SolveResult> results;
  std::vector<BudgetTrip> trips;
  std::vector<std::exception_ptr> faults;
};

ParallelSolver::ParallelSolver(const Formula& formula, SolverConfig config)
    : config_(config), master_(std::make_unique<CdclSolver>(formula, config)) {}

ParallelSolver::ParallelSolver(const ParallelSolver& other)
    : config_(other.config_),
      master_(std::make_unique<CdclSolver>(*other.master_)),
      model_(other.model_),
      core_(other.core_),
      stats_(other.stats_),
      agg_stats_(other.agg_stats_),
      last_trip_(other.last_trip_),
      last_winner_(other.last_winner_),
      last_faults_(other.last_faults_),
      last_exported_(other.last_exported_),
      last_exported_pbs_(other.last_exported_pbs_),
      last_dropped_(other.last_dropped_),
      last_cubes_(other.last_cubes_),
      last_refuted_(other.last_refuted_),
      last_pruned_(other.last_pruned_),
      last_splits_(other.last_splits_) {}

SolveResult ParallelSolver::solve(const SolveBudget& budget,
                                  std::span<const Lit> assumptions) {
  last_faults_ = 0;
  last_exported_ = last_exported_pbs_ = last_dropped_ = 0;
  last_cubes_ = last_refuted_ = last_pruned_ = last_splits_ = 0;
  // Every clone copies the master's CUMULATIVE counters at spawn; this
  // snapshot is what the master's own contribution is measured against.
  const SolverStats before = master_->stats();
  // A fault spec aimed at a clone is stripped off the master (the target
  // clone receives it at spawn). A spec aimed at worker 0 or at every
  // worker fires on the master — in the cube schedule possibly during the
  // warmup, where no survivor exists yet and the fault reaches the caller.
  if (aimed_elsewhere(config_.fault_injection, 0)) {
    master_->reconfigure(worker_config(config_, 0));
  }
  if (config_.cube_depth > 0) return conquer(budget, assumptions, before);

  Pool pool(*master_, config_, std::max(1, config_.portfolio_threads));
  pool.run(config_.portfolio_deterministic, [&](int i, CdclSolver& worker) {
    const SolveResult r = worker.solve(budget, assumptions);
    pool.trips[static_cast<std::size_t>(i)] = worker.last_trip();
    if (r != SolveResult::Unknown) pool.claim(i, r);
  });
  settle(pool, before);
  return conclude(pool, budget);
}

SolveResult ParallelSolver::conquer(const SolveBudget& budget,
                                    std::span<const Lit> assumptions,
                                    const SolverStats& before) {
  // Exits before the pool exists answer from the master alone.
  const auto master_answer = [&](SolveResult r, BudgetTrip trip) {
    accumulate_stats(&agg_stats_, stats_delta(master_->stats(), before));
    return adopt(r, *master_, 0, master_->last_core(), trip);
  };
  if (const BudgetTrip trip = budget.poll(); trip != BudgetTrip::None) {
    return master_answer(SolveResult::Unknown, trip);
  }

  // ---- warmup ----
  // A short budgeted master solve answers easy instances outright and
  // seeds the activities/learned clauses the lookahead branches on. Only
  // an exhausted warmup conflict slice continues into the cube phase; the
  // caller's own budget (deadline, interrupt, propagation cap) ends it.
  if (config_.cube_warmup_conflicts > 0) {
    const SolveResult r = master_->solve(
        budget.child(0.0, config_.cube_warmup_conflicts, 0), assumptions);
    const BudgetTrip parent = budget.poll();
    if (r != SolveResult::Unknown || parent != BudgetTrip::None ||
        master_->last_trip() != BudgetTrip::Conflicts) {
      return master_answer(
          r, parent != BudgetTrip::None ? parent : master_->last_trip());
    }
  }

  // ---- lookahead cube generation on the master ----
  CubeGenOptions gopts;
  gopts.depth = config_.cube_depth;
  gopts.candidates = std::max(1, config_.cube_candidates);
  gopts.easy_frac = config_.cube_easy_frac;
  CubeGenStats gstats;
  std::vector<Cube> cubes =
      generate_cubes(*master_, assumptions, gopts, &gstats);
  if (cubes.empty()) {
    // Root refuted, or every branch closed by propagation: re-derive
    // through a plain solve so the answer carries a properly analyzed
    // core (cheap — propagation alone already refutes).
    const SolveResult r = master_->solve(budget, assumptions);
    return master_answer(r, master_->last_trip());
  }
  last_cubes_ = cubes.size();

  // ---- conquer ----
  const int max_depth =
      gopts.depth + std::max(0, config_.cube_max_extra_depth);
  CubeQueue queue;
  for (Cube& c : cubes) queue.push(std::move(c));
  // Refutations without core attribution (generation probes, resplit
  // probes) poison the per-cube core union: fall back to the full
  // assumption set, which is always a valid core of an Unsat answer.
  std::atomic<bool> core_unattributed{gstats.refuted_branches > 0};
  std::atomic<std::size_t> refuted{0};
  std::atomic<std::size_t> pruned{0};
  std::atomic<std::size_t> splits{0};
  std::mutex core_mutex;
  std::vector<Lit> union_core;  // union of refuted cubes' caller parts

  const bool deterministic = config_.portfolio_deterministic;
  Pool pool(*master_, config_,
            deterministic ? 1 : std::max(1, config_.portfolio_threads));
  pool.run(deterministic, [&](int i, CdclSolver& solver) {
    Cube cube;
    bool in_flight = false;
    try {
      std::vector<Lit> combined;
      while (queue.pop(&cube)) {
        in_flight = true;
        combined.assign(assumptions.begin(), assumptions.end());
        combined.insert(combined.end(), cube.lits.begin(), cube.lits.end());
        // Shallow cubes run on a conflict slice so stragglers surface for
        // splitting; past the split horizon a cube runs to completion.
        const bool sliced =
            config_.cube_conflict_slice > 0 && cube.depth < max_depth;
        const SolveResult r = solver.solve(
            budget.child(0.0, sliced ? config_.cube_conflict_slice : 0, 0),
            combined);
        bool done = false;  // this worker's last cube
        if (r == SolveResult::Sat) {
          // A model of F + assumptions + cube is a model of the query.
          pool.claim(i, r);
          done = true;
        } else if (r == SolveResult::Unsat) {
          refuted.fetch_add(1, std::memory_order_relaxed);
          // Split the analyzed core between the cube's own literals and
          // the caller's assumptions.
          const std::span<const Lit> core = solver.last_core();
          std::vector<Lit> cube_part;
          std::vector<Lit> assume_part;
          std::partition_copy(
              core.begin(), core.end(), std::back_inserter(cube_part),
              std::back_inserter(assume_part),
              [&cube](Lit l) { return contains(cube.lits, l); });
          if (cube_part.empty()) {
            // The refutation never leaned on the cube: F under the
            // caller's assumptions alone is unsat — the global answer,
            // with this worker's core.
            pool.claim(i, r);
            done = true;
          } else {
            {
              const std::lock_guard<std::mutex> lock(core_mutex);
              union_core.insert(union_core.end(), assume_part.begin(),
                                assume_part.end());
            }
            // Core-driven sibling pruning: a queued cube containing every
            // core cube-literal is a superset of a proven-unsat prefix.
            pruned.fetch_add(queue.prune([&cube_part](const Cube& sib) {
              return std::all_of(
                  cube_part.begin(), cube_part.end(),
                  [&sib](Lit l) { return contains(sib.lits, l); });
            }));
          }
        } else {
          // Unknown: a slice-bounded conflict trip means a stuck cube (the
          // work-stealing signal); anything else is a global condition.
          const BudgetTrip trip = solver.last_trip();
          const BudgetTrip parent = budget.poll();
          if (pool.stop.load() || !sliced || trip != BudgetTrip::Conflicts ||
              parent != BudgetTrip::None) {
            // Record the trip and wind the pool down, re-dealing the cube
            // so the bookkeeping stays exact.
            pool.trips[static_cast<std::size_t>(i)] =
                parent != BudgetTrip::None ? parent : trip;
            pool.stop.store(true);
            queue.push(std::move(cube));
            done = true;
          } else {
            // Split on THIS worker's activity heap — it reflects exactly
            // the cube's hard core — and re-deal the children.
            CubeGenStats sstats;
            SplitResult split =
                split_cube(solver, assumptions, cube, gopts, &sstats);
            if (sstats.refuted_branches > 0) core_unattributed.store(true);
            if (split.refuted) {
              refuted.fetch_add(1, std::memory_order_relaxed);
            } else if (split.children.empty()) {
              // No free candidate to split on: push past the split
              // horizon so the cube runs to completion on its next deal.
              splits.fetch_add(1, std::memory_order_relaxed);
              cube.depth = max_depth;
              queue.push(std::move(cube));
            } else {
              splits.fetch_add(1, std::memory_order_relaxed);
              for (Cube& child : split.children) queue.push(std::move(child));
            }
          }
        }
        queue.finish();
        in_flight = false;
        if (done) {
          queue.stop();
          return;
        }
      }
    } catch (...) {
      // The partition must stay covered for Unsat to be sound: re-deal
      // the dead worker's in-flight cube before the barrier records it.
      if (in_flight) {
        queue.push(std::move(cube));
        queue.finish();
      }
      throw;
    }
  });
  settle(pool, before);
  last_refuted_ = refuted.load();
  last_pruned_ = pruned.load();
  last_splits_ = splits.load();

  if (pool.winner(deterministic) < 0 &&
      pool.first_trip() == BudgetTrip::None && queue.outstanding() == 0) {
    // Every cube in the partition refuted: the query is Unsat. The core
    // is the union of the per-cube caller parts unless some refutation
    // lacked attribution, where the full assumption set stands in.
    if (core_unattributed.load()) {
      union_core.assign(assumptions.begin(), assumptions.end());
    } else {
      std::sort(union_core.begin(), union_core.end(),
                [](Lit a, Lit b) { return a.code() < b.code(); });
      union_core.erase(std::unique(union_core.begin(), union_core.end()),
                       union_core.end());
    }
    return adopt(SolveResult::Unsat, *master_, 0, union_core,
                 BudgetTrip::None);
  }
  return conclude(pool, budget);
}

void ParallelSolver::settle(Pool& pool, const SolverStats& before) {
  // Aggregate every worker's contribution — winners, losers, and dead
  // workers alike (a dead worker's counters are settled once its thread
  // joined, and its partial search was real work). The per-clone base
  // keeps the master's inherited counters single-counted.
  accumulate_stats(&agg_stats_, stats_delta(master_->stats(), before));
  for (const auto& clone : pool.clones) {
    accumulate_stats(&agg_stats_, stats_delta(clone->stats(), pool.clone_base));
  }
  last_exported_ = pool.exchange.exported();
  last_exported_pbs_ = pool.exchange.exported_pbs();
  last_dropped_ = pool.exchange.dropped();

  const auto dead = std::count_if(
      pool.faults.begin(), pool.faults.end(),
      [](const std::exception_ptr& f) { return f != nullptr; });
  last_faults_ = static_cast<int>(dead);
  if (dead == pool.size()) {
    // No survivors, so nothing can vouch for an answer: surface the
    // lowest-indexed worker's exception. (The master may be left
    // mid-search inconsistent — an all-workers crash is not recoverable.)
    std::rethrow_exception(pool.faults[0]);
  }
  // Injected faults are one-shot: once a worker has died, later solves
  // on this engine run a fully healthy pool again.
  if (dead > 0) config_.fault_injection = {};
  if (!pool.faults[0]) return;
  // The master died: rebuild it from the first surviving clone. Sound
  // because a quiescent clone holds only consequences of the same shared
  // formula; the copy is re-based onto the master personality.
  const auto survivor =
      std::find(pool.faults.begin(), pool.faults.end(), nullptr) -
      pool.faults.begin();
  master_ = std::make_unique<CdclSolver>(*pool.workers[survivor]);
  master_->reconfigure(config_);
  pool.workers[0] = master_.get();
}

SolveResult ParallelSolver::conclude(Pool& pool, const SolveBudget& budget) {
  const int winner = pool.winner(config_.portfolio_deterministic);
  if (winner >= 0) {
    const SolveResult answer = pool.results[static_cast<std::size_t>(winner)];
    // Workers solve one shared query: definitive answers can only
    // disagree through a soundness bug (e.g. an unsound import), so fail
    // loudly instead of silently surfacing one of them.
    for (const SolveResult r : pool.results) {
      if (r != SolveResult::Unknown && r != answer) {
        throw std::logic_error("parallel workers disagree on SAT/UNSAT");
      }
    }
    const CdclSolver& win = *pool.workers[static_cast<std::size_t>(winner)];
    return adopt(answer, win, winner, win.last_core(), BudgetTrip::None);
  }
  // No answer: report the first recorded trip (under one shared budget
  // every survivor trips on the same condition, modulo poll-cadence
  // races) through the master, which after settle() is alive or rebuilt
  // from the first survivor.
  BudgetTrip trip = pool.first_trip();
  if (trip == BudgetTrip::None) trip = budget.poll();
  if (trip == BudgetTrip::None) trip = BudgetTrip::Interrupt;
  return adopt(SolveResult::Unknown, *master_, -1, {}, trip);
}

SolveResult ParallelSolver::adopt(SolveResult r, const CdclSolver& from,
                                  int winner, std::span<const Lit> core,
                                  BudgetTrip trip) {
  stats_ = from.stats();
  // Worker stats never carry the schedule counters: stamp them into both
  // views (all zero in a race).
  stats_.cubes_dealt = static_cast<std::int64_t>(last_cubes_);
  stats_.cubes_refuted = static_cast<std::int64_t>(last_refuted_);
  stats_.cube_siblings_pruned = static_cast<std::int64_t>(last_pruned_);
  stats_.cube_splits = static_cast<std::int64_t>(last_splits_);
  agg_stats_.cubes_dealt += stats_.cubes_dealt;
  agg_stats_.cubes_refuted += stats_.cubes_refuted;
  agg_stats_.cube_siblings_pruned += stats_.cube_siblings_pruned;
  agg_stats_.cube_splits += stats_.cube_splits;
  if (r == SolveResult::Sat) model_ = from.model();
  core_.clear();
  if (r == SolveResult::Unsat) core_.assign(core.begin(), core.end());
  last_trip_ = r == SolveResult::Unknown ? trip : BudgetTrip::None;
  last_winner_ = r == SolveResult::Unknown ? -1 : winner;
  return r;
}

std::unique_ptr<SolverEngine> make_solver_engine(const Formula& formula,
                                                 const SolverConfig& config) {
  if (config.portfolio_threads <= 1 && config.cube_depth <= 0) {
    return std::make_unique<CdclSolver>(formula, config);
  }
  return std::make_unique<ParallelSolver>(formula, config);
}

}  // namespace symcolor
