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
/// ladder, and the result being assembled. The formula itself is not
/// kept: the ladder is built into it, the engine loads it, and it is
/// freed before the first probe, so the run never holds the formula and
/// the engine's copy of it at once.
struct MinimizeRun {
  const Objective objective;
  const int num_vars;  // of the caller's formula, before the ladder
  const SolveBudget& budget;
  OptResult result;
  Timer timer;
  ObjectiveLadder ladder;
  std::unique_ptr<SolverEngine> engine;

  MinimizeRun(Formula f, const SolverConfig& config, const SolveBudget& b)
      : objective(*f.objective()),
        num_vars(f.num_vars()),
        budget(b),
        ladder(&f, objective) {
    if (!ladder.ok()) {
      throw std::invalid_argument(
          "minimize: objective has too many distinct sums for its ladder");
    }
    engine = make_solver_engine(f, config);
    f = Formula();
    // The ladder floor (objective value with every normalized term off) is
    // proven by construction; mining and Unsat probes only lift it.
    result.lower_bound = ladder.min_value();
  }

  /// One solve against the persistent engine, under the run's budget: the
  /// engine charges what each probe spends, so the counted caps cover the
  /// WHOLE run. A probe is refused outright (Unknown, no solve) once the
  /// budget polls tripped, so no engine is ever handed a spent budget.
  /// Every Unknown records which bound tripped in result.tripped.
  ///
  /// Incremental note: every probe returns with the engine back at
  /// decision level 0, so commit_upper_bound()'s add_clause()/add_pb()
  /// between probes always lands on the root assignment. What carries
  /// from probe to probe is learned state (clauses, activities, phases),
  /// never an assumption trail.
  SolveResult probe(std::span<const Lit> assumptions = {}) {
    if (const BudgetTrip t = budget.poll(); t != BudgetTrip::None) {
      result.tripped = t;
      return SolveResult::Unknown;
    }
    ++result.probes;
    const SolveResult r = engine->solve(budget, assumptions);
    if (r == SolveResult::Unknown) {
      const BudgetTrip trip = engine->last_trip();
      result.tripped = trip != BudgetTrip::None ? trip : budget.poll();
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

std::optional<SearchStrategy> parse_search(std::string_view name) {
  for (const SearchStrategy s : {SearchStrategy::Linear, SearchStrategy::Binary,
                                 SearchStrategy::CoreGuided}) {
    if (name == search_strategy_name(s)) return s;
  }
  return std::nullopt;
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
