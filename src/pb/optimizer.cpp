#include "pb/optimizer.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "cnf/objective_ladder.h"
#include "sat/parallel_solver.h"

namespace symcolor {
namespace {

/// objective <= bound as a normalized PB constraint: the counting form of
/// a committed upper bound.
PbConstraint objective_at_most(const Objective& objective, std::int64_t bound) {
  std::vector<PbTerm> terms(objective.terms.begin(), objective.terms.end());
  return PbConstraint::at_most(std::move(terms), bound);
}

/// Shared state of one minimization run: the persistent engine, the
/// ladder, and the result being assembled.
struct MinimizeRun {
  const Objective objective;
  const int num_vars;  // of the caller's formula, before the ladder
  const SolveBudget& budget;
  /// What the run's probes have spent of the budget's counted caps.
  std::int64_t spent_conflicts = 0;
  std::int64_t spent_propagations = 0;
  OptResult result;
  Timer timer;
  Formula working;
  ObjectiveLadder ladder;
  std::unique_ptr<SolverEngine> engine;

  MinimizeRun(Formula f, const SolverConfig& config, const SolveBudget& b)
      : objective(*f.objective()),
        num_vars(f.num_vars()),
        budget(b),
        working(std::move(f)),
        ladder(&working, objective) {
    if (!ladder.ok()) {
      throw std::invalid_argument(
          "minimize: objective has too many distinct sums for its ladder");
    }
    engine = make_solver_engine(working, config);
    // The ladder floor (objective value with every normalized term off) is
    // proven by construction; mining and Unsat probes only lift it.
    result.lower_bound = ladder.min_value();
  }

  /// Why the run must stop before its next probe, or None to go on: the
  /// budget's asynchronous conditions, then its counted caps, which cover
  /// the WHOLE run rather than one probe.
  [[nodiscard]] BudgetTrip stop_reason() const noexcept {
    if (const BudgetTrip t = budget.poll(); t != BudgetTrip::None) return t;
    if (budget.conflict_budget() > 0 &&
        spent_conflicts >= budget.conflict_budget()) {
      return BudgetTrip::Conflicts;
    }
    if (budget.prop_budget() > 0 &&
        spent_propagations >= budget.prop_budget()) {
      return BudgetTrip::Propagations;
    }
    return BudgetTrip::None;
  }

  /// One solve against the persistent engine. Each probe gets a child of
  /// the run's budget carrying only the unspent remainder of its counted
  /// caps, and a probe is refused outright (Unknown, no solve) once
  /// stop_reason() fires, so no engine is ever handed a spent budget.
  /// Every Unknown records which bound tripped in result.tripped.
  ///
  /// Incremental note: every probe returns with the engine back at
  /// decision level 0, so commit_upper_bound()'s add_clause()/add_pb()
  /// between probes always lands on the root assignment. What carries
  /// from probe to probe is learned state (clauses, activities, phases),
  /// never an assumption trail.
  SolveResult probe(std::span<const Lit> assumptions = {}) {
    if (const BudgetTrip t = stop_reason(); t != BudgetTrip::None) {
      result.tripped = t;
      return SolveResult::Unknown;
    }
    ++result.probes;
    const auto left = [](std::int64_t cap, std::int64_t spent) {
      return cap > 0 ? cap - spent : std::int64_t{0};
    };
    const std::int64_t conflicts_before = engine->stats().conflicts;
    const std::int64_t props_before = engine->stats().propagations;
    const SolveResult r = engine->solve(
        budget.child(0.0, left(budget.conflict_budget(), spent_conflicts),
                     left(budget.prop_budget(), spent_propagations)),
        assumptions);
    spent_conflicts += std::max<std::int64_t>(
        0, engine->stats().conflicts - conflicts_before);
    spent_propagations += std::max<std::int64_t>(
        0, engine->stats().propagations - props_before);
    if (r == SolveResult::Unknown) {
      const BudgetTrip trip = engine->last_trip();
      result.tripped = trip != BudgetTrip::None ? trip : stop_reason();
    }
    return r;
  }

  /// Probe under the single ladder assumption asserting objective <= bound.
  /// A bound below the objective's floor is Unsat without a solve.
  SolveResult probe_at_most(std::int64_t bound) {
    const ObjectiveLadder::Bound b = ladder.at_most(bound);
    if (b.kind == ObjectiveLadder::Bound::Kind::Infeasible) {
      return SolveResult::Unsat;
    }
    if (b.kind == ObjectiveLadder::Bound::Kind::Assume) {
      return probe({&b.lit, 1});
    }
    return probe();
  }

  void record_incumbent() {
    result.model = engine->model();
    result.best_value = objective.value(result.model);
    commit_upper_bound();
  }

  /// Permanently assert objective <= best_value - 1. Sound for the rest
  /// of THIS run: the upper bound only tightens, every later probe asks
  /// for a bound at or below it, and all optimal models survive (when
  /// best_value IS the optimum the engine goes root-Unsat, which is
  /// exactly what the closing probe must prove). Committed in BOTH
  /// representations — a ladder output unit (level-0 chain propagation)
  /// and a PB row (the counting form cutting-planes conflict analysis
  /// can resolve with; a CNF ladder alone costs Galena its pigeonhole
  /// power on the closing UNSAT proof). Only the MOVING probe bound
  /// rides on a retractable assumption.
  void commit_upper_bound() {
    const std::int64_t target = result.best_value - 1;
    if (target >= committed_ub) return;
    committed_ub = target;
    const ObjectiveLadder::Bound bound = ladder.at_most(target);
    if (bound.kind == ObjectiveLadder::Bound::Kind::Assume) {
      engine->add_clause({bound.lit});
    }
    engine->add_pb(objective_at_most(objective, target));
  }
  std::int64_t committed_ub = std::numeric_limits<std::int64_t>::max();

  OptResult finish(OptStatus status) {
    result.status = status;
    result.stats = engine->stats();
    result.agg_stats = engine->aggregated_stats();
    result.seconds = timer.seconds();
    // Surface the model over the ORIGINAL variables only; the ladder
    // auxiliaries are an implementation detail of the search.
    if (!result.model.empty()) {
      result.model.resize(static_cast<std::size_t>(num_vars));
    }
    // Status/bound consistency, enforced in one place:
    //  * Feasible PROMISES an incumbent — a budgeted exit that never found
    //    a model must degrade to Unknown, not surface garbage best_value;
    //  * a proof outcome clears the trip marker (a budget may have been
    //    configured, but it is not what ended the run);
    //  * Optimal pins the lower bound to the optimum, and an incumbent
    //    caps it (the bound can never exceed a witnessed value).
    if (result.status == OptStatus::Feasible && result.model.empty()) {
      result.status = OptStatus::Unknown;
    }
    if (result.solved()) result.tripped = BudgetTrip::None;
    if (result.status == OptStatus::Optimal) {
      result.lower_bound = result.best_value;
    } else if (!result.model.empty() &&
               result.lower_bound > result.best_value) {
      result.lower_bound = result.best_value;
    }
    result.budget_exhausted = result.tripped != BudgetTrip::None;
    return result;
  }

  /// Bisect [result.lower_bound, best_value - 1] with ladder assumptions
  /// on the one engine, starting from a recorded incumbent. Every Unsat
  /// probe raises the proven lower bound. Returns the final status
  /// (Optimal, or Feasible once the budget trips — the incumbent and the
  /// proven bound both survive).
  OptStatus bisect() {
    std::int64_t lo = result.lower_bound;
    std::int64_t hi = result.best_value - 1;
    while (lo <= hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      const SolveResult r = probe_at_most(mid);
      if (r == SolveResult::Sat) {
        record_incumbent();
        hi = result.best_value - 1;
      } else if (r == SolveResult::Unsat) {
        // No model at or below mid: the optimum is proven > mid.
        lo = mid + 1;
        result.lower_bound = lo;
      } else {
        return OptStatus::Feasible;  // probe() recorded the trip
      }
    }
    return OptStatus::Optimal;
  }

  /// Linear strengthening from a recorded incumbent: repeatedly assume
  /// objective <= best - 1 until UNSAT, or until the incumbent meets the
  /// proven lower bound.
  OptStatus strengthen() {
    while (result.best_value > result.lower_bound) {
      const SolveResult r = probe_at_most(result.best_value - 1);
      if (r == SolveResult::Unsat) break;
      if (r == SolveResult::Unknown) return OptStatus::Feasible;
      record_incumbent();
    }
    return OptStatus::Optimal;
  }
};

}  // namespace

const char* search_strategy_name(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::Linear: return "linear";
    case SearchStrategy::Binary: return "binary";
    case SearchStrategy::CoreGuided: return "core";
  }
  return "?";
}

OptResult solve_decision(const Formula& formula, const SolverConfig& config,
                         const SolveBudget& budget) {
  OptResult result;
  Timer timer;
  const std::unique_ptr<SolverEngine> solver =
      make_solver_engine(formula, config);
  const SolveResult sat = solver->solve(budget);
  result.probes = 1;
  result.stats = solver->stats();
  result.agg_stats = solver->aggregated_stats();
  result.seconds = timer.seconds();
  switch (sat) {
    case SolveResult::Sat:
      result.status = OptStatus::Optimal;
      result.model = solver->model();
      if (formula.objective()) {
        result.best_value = formula.objective()->value(result.model);
        result.status = OptStatus::Feasible;  // value not proved minimal
      }
      return result;
    case SolveResult::Unsat:
      result.status = OptStatus::Infeasible;
      return result;
    case SolveResult::Unknown:
      // A budgeted exit with no model is Unknown, full stop — never
      // Feasible with an uninitialized bound.
      result.status = OptStatus::Unknown;
      result.tripped = solver->last_trip();
      result.budget_exhausted = true;
      return result;
  }
  return result;
}

OptResult minimize(Formula formula, const SolverConfig& config,
                   const SolveBudget& budget, SearchStrategy strategy,
                   std::int64_t lower_hint) {
  if (!formula.objective()) return solve_decision(formula, config, budget);
  MinimizeRun run(std::move(formula), config, budget);
  run.result.lower_bound = std::max(run.result.lower_bound, lower_hint);

  // Every strategy opens with an unconstrained probe: Infeasible is
  // decided once, and the incumbent immediately commits the permanent
  // upper bound that all later probes benefit from.
  const SolveResult first = run.probe();
  if (first == SolveResult::Unsat) return run.finish(OptStatus::Infeasible);
  if (first == SolveResult::Unknown) return run.finish(OptStatus::Unknown);
  run.record_incumbent();
  if (run.result.best_value <= run.result.lower_bound) {
    return run.finish(OptStatus::Optimal);
  }

  // Core mining needs the committed incumbent bound for two reasons: the
  // mined lb feeds the ladder bisection only, and without the bound a
  // mining Sat model may be WORSE than the incumbent — the bound
  // guarantees every later model strictly improves, which is what lets
  // record_incumbent overwrite unconditionally.
  if (strategy == SearchStrategy::CoreGuided) {
    // Disjoint-core mining: assume every objective term contributes
    // nothing; every UNSAT answer's failed-assumption core names terms
    // that cannot all stay off, lifting the lower bound by the core's
    // minimum weight. Mined cores are disjoint (their assumptions
    // retire), so the lifts add up soundly — and because mining runs
    // under the committed incumbent bound, the lifted lb is valid for
    // the bound-restricted problem, whose optimum is the original one.
    std::vector<Lit> assumptions;
    std::map<int, std::int64_t> weight_by_code;
    for (const ObjectiveLadder::SoftTerm& soft : run.ladder.soft_terms()) {
      assumptions.push_back(soft.assume);
      weight_by_code[soft.assume.code()] = soft.weight;
    }
    std::int64_t lifted = 0;
    while (!assumptions.empty()) {
      const SolveResult r = run.probe(assumptions);
      if (r == SolveResult::Unknown) break;  // budget tripped: bisect reports
      if (r == SolveResult::Sat) {
        // A model with every remaining term off — often far below the
        // incumbent; take it before switching to the bound search.
        run.record_incumbent();
        break;
      }
      const std::span<const Lit> core = run.engine->last_core();
      if (core.empty()) {
        // Root-level Unsat: with the incumbent bound committed this
        // means no model beats the incumbent — it is optimal.
        return run.finish(OptStatus::Optimal);
      }
      std::int64_t min_weight = 0;
      for (const Lit l : core) {
        const auto it = weight_by_code.find(l.code());
        assert(it != weight_by_code.end());  // cores are assumption subsets
        if (it == weight_by_code.end()) continue;
        if (min_weight == 0 || it->second < min_weight) {
          min_weight = it->second;
        }
      }
      lifted += min_weight;
      const std::size_t before = assumptions.size();
      std::erase_if(assumptions, [&](Lit a) {
        return std::find(core.begin(), core.end(), a) != core.end();
      });
      if (assumptions.size() == before) {
        // Defensive: a core that retires no assumption would loop
        // forever; drop to the bound search instead.
        break;
      }
    }
    // Mined cores are proofs: even if the budget trips before bisection,
    // the lifted floor is a sound bound to hand back.
    run.result.lower_bound =
        std::max(run.result.lower_bound, run.ladder.min_value() + lifted);
  }

  return run.finish(strategy == SearchStrategy::Linear ? run.strengthen()
                                                       : run.bisect());
}

}  // namespace symcolor
