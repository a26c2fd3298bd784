#pragma once
// Cube generation and the cube work queue of the parallel engine's cube
// schedule (sat/parallel_solver.h).
//
// A *cube* is a conjunction of literals that carves out one branch of the
// search space; the engine solves each cube as extra assumptions stacked
// on top of the caller's own, so refuting every cube in a partition
// refutes the formula and any single Sat cube yields a model. Cubes ride
// the assumption substrate unchanged: workers call the ordinary
// solve(budget, assumptions) and a refuted cube reports the subset of its
// literals that mattered through last_core() — which is what powers
// core-driven sibling pruning in the scheduler.
//
// Generation is propagation-count lookahead (the classic cube-and-conquer
// recipe, March/Treengeling style, scaled down): branch candidates come
// from the top of the solver's own VSIDS activity heap (seeded by a short
// warmup solve), each candidate is probed in both phases under unit
// propagation, and the branch variable chosen maximizes the *minimum*
// forced count over the two phases — split where BOTH children simplify.
// A probe that refutes one phase is a failed literal: the other phase is
// forced, and the cube strengthens for free without splitting. Cutoffs:
// fixed depth plus an estimated-hardness heuristic (a branch that already
// forces a configured fraction of the free variables is emitted as a leaf
// — it is easy enough to finish in one worker slice).

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "cnf/literals.h"
#include "sat/cdcl.h"

namespace symcolor {

/// One branch of the search-space partition.
struct Cube {
  /// The branch literals, assumed in order after the caller's assumptions.
  std::vector<Lit> lits;
  /// Split generations behind this cube (resplits of stuck cubes count);
  /// the scheduler stops re-splitting past a configured depth.
  int depth = 0;
};

/// The cube work queue: FIFO deque under one mutex, with outstanding-
/// work tracking for exhaustion detection and predicate pruning for
/// core-driven sibling refutation. FIFO order is what makes deterministic
/// mode reproducible — cubes are solved in deal order. A popped cube is
/// *in flight* until the worker calls finish() for it exactly once;
/// splitting a cube means push()ing its children before finish()ing the
/// parent, so the outstanding count never touches zero while work
/// remains.
class CubeQueue {
 public:
  void push(Cube cube) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(cube));
      ++outstanding_;
    }
    cv_.notify_one();
  }

  /// Block until a cube is available (true), every outstanding cube has
  /// finished (false — the partition is exhausted), or stop() was called
  /// (false). Spurious wakeups are handled internally.
  [[nodiscard]] bool pop(Cube* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return stopped_ || !queue_.empty() || outstanding_ == 0;
    });
    if (stopped_ || queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  /// The most recently popped cube reached a terminal state (refuted,
  /// split-and-redealt, or abandoned). Must be called exactly once per
  /// successful pop(); a worker re-dealing a cube pushes first.
  void finish() {
    bool drained = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      drained = --outstanding_ == 0;
    }
    if (drained) cv_.notify_all();
  }

  /// Cancel: wake every blocked pop() and make all future pops fail.
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  /// Remove every *queued* cube matching `pred` (in-flight cubes are
  /// untouchable — their workers own them). Returns how many were removed;
  /// each removed cube counts as finished. This is the sibling-pruning
  /// hook: when a cube refutes with core C, every queued sibling whose
  /// literal set contains C is unsatisfiable by the same core and need
  /// never be solved.
  std::size_t prune(const std::function<bool(const Cube&)>& pred) {
    bool drained = false;
    std::size_t removed = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto keep_end =
          std::remove_if(queue_.begin(), queue_.end(), pred);
      removed = static_cast<std::size_t>(queue_.end() - keep_end);
      queue_.erase(keep_end, queue_.end());
      outstanding_ -= removed;
      drained = removed > 0 && outstanding_ == 0;
    }
    if (drained) cv_.notify_all();
    return removed;
  }

  [[nodiscard]] std::size_t outstanding() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return outstanding_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Cube> queue_;
  /// Queued + in-flight cubes; zero means the partition is exhausted.
  std::size_t outstanding_ = 0;
  bool stopped_ = false;
};

/// Lookahead knobs (mirrors the cube_* fields of SolverConfig).
struct CubeGenOptions {
  int depth = 4;
  int candidates = 8;
  double easy_frac = 0.3;
  /// Safety bound on the emitted frontier; expansion stops once reached.
  std::size_t max_cubes = 4096;
};

struct CubeGenStats {
  /// probe_assumptions() calls issued.
  std::int64_t probes = 0;
  /// Branches closed at generation time because the probe refuted them
  /// under unit propagation (sound refutations, but without a core: when
  /// the caller passed its own assumptions, an all-cubes-Unsat answer must
  /// fall back to the full assumption set as its core).
  std::int64_t refuted_branches = 0;
  /// Failed-literal strengthenings (one phase refuted, the other forced).
  std::int64_t failed_literals = 0;
  /// The root prefix itself refuted under propagation.
  bool root_refuted = false;
};

/// Outcome of splitting one cube.
struct SplitResult {
  /// Zero, one (failed literal / unsplittable-as-is) or two children, the
  /// probe solver's saved-phase branch first. Empty with refuted unset
  /// means no unassigned branch candidate exists.
  std::vector<Cube> children;
  /// Forced-literal count of each child's probe, aligned with children.
  std::vector<int> forced;
  /// The cube itself refutes under unit propagation (children is empty).
  bool refuted = false;
};

/// Split `cube` (solved under `base` caller assumptions) on the best
/// lookahead candidate drawn from `probe`'s activity heap. `probe` is used
/// for propagation probes only and is left quiescent; any CdclSolver that
/// has seen the formula works — the generator uses the warmed-up master,
/// the scheduler re-splits stuck cubes on the worker that got stuck (whose
/// activities reflect that cube's own search).
[[nodiscard]] SplitResult split_cube(CdclSolver& probe,
                                     std::span<const Lit> base,
                                     const Cube& cube,
                                     const CubeGenOptions& options,
                                     CubeGenStats* stats);

/// Breadth-first lookahead expansion to options.depth: the cube frontier
/// for the scheduler to deal. Returns an empty vector when the root prefix
/// refutes (stats->root_refuted) or every branch refuted under propagation
/// — the caller must fall back to a plain solve to produce a proper
/// certificate/core. Deterministic given the probe solver's state.
[[nodiscard]] std::vector<Cube> generate_cubes(CdclSolver& probe,
                                               std::span<const Lit> base,
                                               const CubeGenOptions& options,
                                               CubeGenStats* stats);

}  // namespace symcolor
