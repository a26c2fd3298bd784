#include "sat/parallel_solver.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <mutex>
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
      // Native cutting-planes PB learning under long Luby restarts: the
      // worker holds on to deep trails between rare restarts, and on
      // PB-heavy instances the pool always runs both analysis modes (a
      // no-op on purely clausal formulas).
      c.restart_scheme = RestartScheme::Luby;
      c.restart_base = 512;
      c.pb_analysis = PbAnalysis::CuttingPlanes;
      break;
    case 2:
      // Slow-and-steady: gentle geometric restarts. Explicitly pins
      // clause-weakening PB analysis so a CuttingPlanes base (the Galena
      // profile) still runs a weakening worker.
      c.restart_scheme = RestartScheme::Geometric;
      c.restart_base = 100;
      c.restart_growth = 1.3;
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
      // tighter first reduction.
      c.max_learnts_init = 512;
      break;
  }
  return c;
}

namespace {

/// Bound on the shared export buffer (constraints per lane; further
/// exports drop).
constexpr std::size_t kExchangeCapacity = 1 << 14;

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

/// `config` itself, once its cube depth is checked.
SolverConfig with_cube_depth(SolverConfig config) {
  if (config.cube_depth < 1) {
    throw std::invalid_argument("ParallelSolver needs a cube depth >= 1");
  }
  return config;
}

}  // namespace

struct ParallelSolver::Pool {
  /// Worker 0 is `master`; 1..n-1 are diversified clones of its current
  /// state, so constraints added between calls (and whatever the master
  /// learned or imported so far) carry over. Every worker solves under
  /// `budget`, one child of the caller's.
  Pool(CdclSolver& master, const SolverConfig& config, int n,
       const SolveBudget& caller)
      : budget(caller.child()),
        clone_base(master.stats()),
        exchange(kExchangeCapacity, n),
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

  /// Stop every worker at its next poll.
  void stop() const { budget.interrupt(); }

  /// Worker `i` answered the whole query; the first claim stops the rest.
  void claim(int i, SolveResult r) {
    results[static_cast<std::size_t>(i)] = r;
    int none = -1;
    if (first.compare_exchange_strong(none, i)) stop();
  }

  /// The first claim (-1 when none). Dead workers never claim, so they
  /// never win.
  [[nodiscard]] int winner() const { return first.load(); }

  /// The lowest-indexed worker's recorded budget condition (None if no
  /// worker recorded one).
  [[nodiscard]] BudgetTrip first_trip() const {
    const auto it = std::find_if(trips.begin(), trips.end(), [](auto t) {
      return t != BudgetTrip::None;
    });
    return it == trips.end() ? BudgetTrip::None : *it;
  }

  /// Run `body(i, worker)` on every worker behind an exception barrier:
  /// worker 0 on the calling thread, the clones on their own threads,
  /// sharing through the exchange.
  template <typename Body>
  void run(Body body) {
    const bool share = size() > 1;
    const auto guarded = [&](int i) {
      CdclSolver& worker = *workers[static_cast<std::size_t>(i)];
      try {
        if (share) worker.set_sharing(&exchange, i);
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
      budget.interrupt();
    }
    if (!spawn_error) guarded(0);
    for (std::thread& t : threads) t.join();
    // The exchange dies with the pool; the master persists.
    workers[0]->set_sharing(nullptr, 0);
    if (spawn_error) std::rethrow_exception(spawn_error);
  }

  /// The workers' budget: a child of the caller's, whose interrupt() is
  /// the first-answer stop. Frame-local, so a stop never outlives the
  /// solve() that fired it.
  const SolveBudget budget;
  std::vector<std::unique_ptr<CdclSolver>> clones;
  std::vector<CdclSolver*> workers;
  /// The master's cumulative counters, which every clone inherited.
  SolverStats clone_base;
  ClauseExchange exchange;
  std::atomic<int> first{-1};
  /// Per worker: its answer to the whole query (Unknown unless claimed),
  /// the global budget condition that ended its run, and its death.
  std::vector<SolveResult> results;
  std::vector<BudgetTrip> trips;
  std::vector<std::exception_ptr> faults;
};

/// The conquer phase: the pool's workers pull cubes from one queue until
/// a cube answers the query, the partition is refuted, or a global
/// condition winds the pool down.
struct ParallelSolver::CubeRun {
  Pool& pool;
  std::span<const Lit> assumptions;
  /// The caller's budget: its conditions, unlike the pool's first-answer
  /// stop, are what a wound-down worker records as its trip.
  const SolveBudget& caller;
  const CubeGenOptions& gopts;
  /// Cubes this deep run to completion instead of on a conflict slice.
  int max_depth;
  std::int64_t slice;
  CubeQueue queue{};
  /// Refutations without core attribution (generation probes, resplit
  /// probes) poison the per-cube core union: the full assumption set,
  /// always a valid core of an Unsat answer, stands in for it.
  std::atomic<bool> core_unattributed;
  std::atomic<std::size_t> refuted{0};
  std::atomic<std::size_t> pruned{0};
  std::atomic<std::size_t> splits{0};
  std::mutex core_mutex{};
  std::vector<Lit> union_core{};  // union of refuted cubes' caller parts

  /// Worker `i`'s loop: pull and solve cubes until the queue drains or
  /// stops, or this worker's last cube ends the pool's run.
  void work(int i, CdclSolver& solver) {
    Cube cube;
    bool in_flight = false;
    std::vector<Lit> combined;
    try {
      while (queue.pop(&cube)) {
        in_flight = true;
        const bool done = solve_cube(i, solver, cube, combined);
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
  }

  /// Solve one dealt cube under the caller's assumptions. True when this
  /// was the worker's last cube: it answered the query, or a global
  /// condition winds the pool down (the cube is then re-dealt so the
  /// bookkeeping stays exact).
  bool solve_cube(int i, CdclSolver& solver, Cube& cube,
                  std::vector<Lit>& combined) {
    combined.assign(assumptions.begin(), assumptions.end());
    combined.insert(combined.end(), cube.lits.begin(), cube.lits.end());
    // Shallow cubes run on a conflict slice so stragglers surface for
    // splitting; past the split horizon a cube runs to completion.
    const bool sliced = slice > 0 && cube.depth < max_depth;
    const SolveResult r =
        solver.solve(pool.budget.child(0.0, sliced ? slice : 0, 0), combined);
    if (r == SolveResult::Sat) {
      // A model of F + assumptions + cube is a model of the query.
      pool.claim(i, r);
      return true;
    }
    if (r == SolveResult::Unsat) return refute(i, solver, cube);
    // Unknown: a slice-bounded conflict trip means a stuck cube (the
    // work-stealing signal); anything else is a global condition.
    const BudgetTrip trip = solver.last_trip();
    const BudgetTrip parent = caller.poll();
    if (pool.budget.interrupted() || !sliced ||
        trip != BudgetTrip::Conflicts || parent != BudgetTrip::None) {
      pool.trips[static_cast<std::size_t>(i)] =
          parent != BudgetTrip::None ? parent : trip;
      pool.stop();
      queue.push(std::move(cube));
      return true;
    }
    split(solver, cube);
    return false;
  }

  /// A refuted cube. True when the refutation never leaned on the cube,
  /// which answers the whole query; otherwise its core prunes the queue.
  bool refute(int i, CdclSolver& solver, const Cube& cube) {
    refuted.fetch_add(1, std::memory_order_relaxed);
    // Split the analyzed core between the cube's own literals and the
    // caller's assumptions.
    const std::span<const Lit> core = solver.last_core();
    std::vector<Lit> cube_part;
    std::vector<Lit> assume_part;
    std::partition_copy(core.begin(), core.end(),
                        std::back_inserter(cube_part),
                        std::back_inserter(assume_part),
                        [&cube](Lit l) { return contains(cube.lits, l); });
    if (cube_part.empty()) {
      // F under the caller's assumptions alone is unsat — the global
      // answer, with this worker's core.
      pool.claim(i, SolveResult::Unsat);
      return true;
    }
    {
      const std::lock_guard<std::mutex> lock(core_mutex);
      union_core.insert(union_core.end(), assume_part.begin(),
                        assume_part.end());
    }
    // Core-driven sibling pruning: a queued cube containing every core
    // cube-literal is a superset of a proven-unsat prefix.
    pruned.fetch_add(queue.prune([&cube_part](const Cube& sib) {
      return std::all_of(cube_part.begin(), cube_part.end(),
                         [&sib](Lit l) { return contains(sib.lits, l); });
    }));
    return false;
  }

  /// A stuck cube: split it on THIS worker's activity heap — it reflects
  /// exactly the cube's hard core — and re-deal the children. `cube`
  /// stays intact until it is re-dealt, so a fault mid-split leaves it
  /// to the worker's barrier.
  void split(CdclSolver& solver, Cube& cube) {
    CubeGenStats sstats;
    SplitResult result = split_cube(solver, assumptions, cube, gopts, &sstats);
    if (sstats.refuted_branches > 0) core_unattributed.store(true);
    if (result.refuted) {
      refuted.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    splits.fetch_add(1, std::memory_order_relaxed);
    if (result.children.empty()) {
      // No free candidate to split on: push past the split horizon so the
      // cube runs to completion on its next deal.
      cube.depth = max_depth;
      queue.push(std::move(cube));
      return;
    }
    for (Cube& child : result.children) queue.push(std::move(child));
  }
};

ParallelSolver::ParallelSolver(const Formula& formula, SolverConfig config)
    : config_(with_cube_depth(std::move(config))),
      master_(std::make_unique<CdclSolver>(formula, config_)) {}

SolveResult ParallelSolver::solve(const SolveBudget& budget,
                                  std::span<const Lit> assumptions) {
  last_faults_ = 0;
  // Every clone copies the master's CUMULATIVE counters at spawn; this
  // snapshot is what the master's own contribution is measured against.
  const SolverStats before = master_->stats();
  // A fault spec aimed at a clone is stripped off the master (the target
  // clone receives it at spawn). A spec aimed at worker 0 or at every
  // worker fires on the master, possibly during the warmup, where no
  // survivor exists yet and the fault reaches the caller.
  if (aimed_elsewhere(config_.fault_injection, 0)) {
    master_->reconfigure(worker_config(config_, 0));
  }
  // A spent, expired or interrupted budget answers before any worker runs.
  if (const BudgetTrip trip = budget.poll(); trip != BudgetTrip::None) {
    return adopt(SolveResult::Unknown, *master_, -1, {}, trip);
  }
  // Exits before the pool exists answer from the master alone.
  const auto master_answer = [&](SolveResult r, BudgetTrip trip) {
    accumulate_stats(&agg_stats_, stats_delta(master_->stats(), before));
    return adopt(r, *master_, 0, master_->last_core(), trip);
  };

  // ---- warmup ----
  // A short budgeted master solve answers easy instances outright and
  // seeds the activities/learned clauses the lookahead branches on. Only
  // an exhausted warmup conflict slice continues into the cube phase; the
  // caller's own budget (deadline, interrupt, a spent cap) ends it.
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

  // ---- conquer ----
  Pool pool(*master_, config_,
            config_.portfolio_deterministic
                ? 1
                : std::max(1, config_.portfolio_threads),
            budget);
  CubeRun run{
      .pool = pool,
      .assumptions = assumptions,
      .caller = budget,
      .gopts = gopts,
      .max_depth = gopts.depth + std::max(0, config_.cube_max_extra_depth),
      .slice = config_.cube_conflict_slice,
      .core_unattributed = {gstats.refuted_branches > 0}};
  for (Cube& c : cubes) run.queue.push(std::move(c));
  pool.run([&run](int i, CdclSolver& solver) { run.work(i, solver); });
  settle(pool, before);

  SolveResult answer;
  if (pool.winner() < 0 && pool.first_trip() == BudgetTrip::None &&
      run.queue.outstanding() == 0) {
    // Every cube in the partition refuted: the query is Unsat. The core
    // is the union of the per-cube caller parts unless some refutation
    // lacked attribution, where the full assumption set stands in.
    std::vector<Lit>& core = run.union_core;
    if (run.core_unattributed.load()) {
      core.assign(assumptions.begin(), assumptions.end());
    } else {
      std::sort(core.begin(), core.end(),
                [](Lit a, Lit b) { return a.code() < b.code(); });
      core.erase(std::unique(core.begin(), core.end()), core.end());
    }
    answer = adopt(SolveResult::Unsat, *master_, 0, core, BudgetTrip::None);
  } else {
    answer = conclude(pool, budget);
  }
  // Worker stats never carry the schedule counters: stamp them into both
  // views.
  for (SolverStats* s : {&stats_, &agg_stats_}) {
    s->cubes_dealt += static_cast<std::int64_t>(cubes.size());
    s->cubes_refuted += static_cast<std::int64_t>(run.refuted.load());
    s->cube_siblings_pruned += static_cast<std::int64_t>(run.pruned.load());
    s->cube_splits += static_cast<std::int64_t>(run.splits.load());
  }
  return answer;
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
  const int winner = pool.winner();
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
  // The worker's exit counters also count its warmup slice, its cube
  // slices and the pool's wind-down stop; this engine's count its own
  // solve() calls, by the trip each returned.
  if (r == SolveResult::Unknown) count_budget_exit(&exits_, trip);
  stats_.deadline_exits = exits_.deadline_exits;
  stats_.conflict_budget_exits = exits_.conflict_budget_exits;
  stats_.prop_budget_exits = exits_.prop_budget_exits;
  stats_.interrupt_exits = exits_.interrupt_exits;
  if (r == SolveResult::Sat) model_ = from.model();
  core_.clear();
  if (r == SolveResult::Unsat) core_.assign(core.begin(), core.end());
  last_trip_ = r == SolveResult::Unknown ? trip : BudgetTrip::None;
  last_winner_ = r == SolveResult::Unknown ? -1 : winner;
  return r;
}

std::unique_ptr<SolverEngine> make_solver_engine(const Formula& formula,
                                                 const SolverConfig& config) {
  if (config.portfolio_threads > 1) {
    return std::make_unique<ParallelSolver>(formula, config);
  }
  return std::make_unique<CdclSolver>(formula, config);
}

}  // namespace symcolor
