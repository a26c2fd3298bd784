#include "pb/optimizer.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>

#include "cnf/objective_ladder.h"
#include "sat/parallel_solver.h"

namespace symcolor {
namespace {

/// objective <= bound as a normalized PB constraint (the permanent-row
/// fallback used when the selector ladder was refused).
PbConstraint objective_at_most(const Objective& objective, std::int64_t bound) {
  std::vector<PbTerm> terms(objective.terms.begin(), objective.terms.end());
  return PbConstraint::at_most(std::move(terms), bound);
}

/// Shared state of one minimization run: the persistent engine, the
/// ladder, and the result being assembled.
struct MinimizeRun {
  const Formula& formula;
  const Objective& objective;
  const SolveBudget& budget;
  BudgetLedger ledger;
  OptResult result;
  Timer timer;
  Formula working;
  ObjectiveLadder ladder;
  std::unique_ptr<SolverEngine> engine;

  MinimizeRun(const Formula& f, const SolverConfig& config,
              const SolveBudget& b)
      : formula(f),
        objective(*f.objective()),
        budget(b),
        ledger(b),
        working(f),
        ladder(&working, objective) {
    engine = make_solver_engine(working, config);
    // The ladder floor (objective value with every normalized term off) is
    // proven by construction; mining and Unsat probes only lift it.
    result.lower_bound = ladder.min_value();
  }

  /// One solve against the persistent engine, charged to the run ledger.
  /// The run's conflict/propagation caps are whole-run budgets: each probe
  /// gets a child budget carrying only the unspent remainder, and a probe
  /// is refused outright (Unknown) once the ledger is exhausted. Every
  /// Unknown records which bound tripped in result.tripped.
  ///
  /// Incremental note: every probe returns with the engine back at
  /// decision level 0, so commit_upper_bound()'s add_clause()/add_pb()
  /// between probes always lands on the root assignment. What carries
  /// from probe to probe is learned state (clauses, activities, phases),
  /// never an assumption trail.
  SolveResult probe(std::span<const Lit> assumptions = {}) {
    const BudgetTrip pre = ledger.trip();
    if (pre != BudgetTrip::None) {
      result.tripped = pre;
      return SolveResult::Unknown;
    }
    ++result.probes;
    const SolveBudget slice = ledger.probe();
    const std::int64_t conflicts_before = engine->stats().conflicts;
    const std::int64_t props_before = engine->stats().propagations;
    const SolveResult r = engine->solve(slice, assumptions);
    ledger.charge(engine->stats().conflicts - conflicts_before,
                  engine->stats().propagations - props_before);
    if (r == SolveResult::Unknown) {
      const BudgetTrip trip = engine->last_trip();
      result.tripped = trip != BudgetTrip::None ? trip : ledger.trip();
    }
    return r;
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
    if (!ladder.ok()) return;  // the fallback path adds permanent PB rows
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
      result.model.resize(static_cast<std::size_t>(formula.num_vars()));
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

  /// Bisect [lo, best_value - 1] with ladder assumptions on the one
  /// engine, starting from a recorded incumbent. `lo` must be a proven
  /// lower bound; every Unsat probe raises it (and result.lower_bound)
  /// further. Returns the final status (Optimal, or Feasible once the
  /// budget trips — the incumbent and the proven bound both survive).
  OptStatus bisect(std::int64_t lo) {
    if (lo > result.lower_bound) result.lower_bound = lo;
    std::int64_t hi = result.best_value - 1;
    while (lo <= hi) {
      const BudgetTrip trip = ledger.trip();
      if (trip != BudgetTrip::None) {
        result.tripped = trip;
        return OptStatus::Feasible;
      }
      const std::int64_t mid = lo + (hi - lo) / 2;
      const ObjectiveLadder::Bound bound = ladder.at_most(mid);
      if (bound.kind == ObjectiveLadder::Bound::Kind::Infeasible) {
        lo = mid + 1;  // below the objective's floor (defensive)
        continue;
      }
      std::span<const Lit> assume;
      if (bound.kind == ObjectiveLadder::Bound::Kind::Assume) {
        assume = {&bound.lit, 1};
      }
      const SolveResult r = probe(assume);
      if (r == SolveResult::Sat) {
        record_incumbent();
        hi = result.best_value - 1;
      } else if (r == SolveResult::Unsat) {
        // No model at or below mid: the optimum is proven > mid.
        lo = mid + 1;
        if (lo > result.lower_bound) result.lower_bound = lo;
      } else {
        return OptStatus::Feasible;  // probe() recorded the trip
      }
    }
    return OptStatus::Optimal;
  }

  /// Linear strengthening from a recorded incumbent: repeatedly assume
  /// objective <= best - 1 until UNSAT. Used by SearchStrategy::Linear
  /// and as the ladder-less fallback (permanent rows) for every strategy.
  OptStatus strengthen() {
    for (;;) {
      const std::int64_t target = result.best_value - 1;
      if (ladder.ok()) {
        const ObjectiveLadder::Bound bound = ladder.at_most(target);
        if (bound.kind == ObjectiveLadder::Bound::Kind::Infeasible) {
          return OptStatus::Optimal;  // incumbent sits on the floor
        }
        std::span<const Lit> assume;
        if (bound.kind == ObjectiveLadder::Bound::Kind::Assume) {
          assume = {&bound.lit, 1};
        }
        const SolveResult r = probe(assume);
        if (r == SolveResult::Sat) {
          record_incumbent();
          continue;
        }
        return r == SolveResult::Unsat ? OptStatus::Optimal
                                       : OptStatus::Feasible;
      }
      // Ladder refused (adversarial weight pattern): strengthen with
      // permanent PB rows on the same persistent engine — still zero
      // rebuilds, just no retraction, so Binary/CoreGuided degrade to
      // linear strengthening here.
      engine->add_pb(objective_at_most(objective, target));
      const SolveResult r = probe();
      if (r == SolveResult::Sat) {
        record_incumbent();
        continue;
      }
      return r == SolveResult::Unsat ? OptStatus::Optimal
                                     : OptStatus::Feasible;
    }
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

OptResult minimize(const Formula& formula, const SolverConfig& config,
                   const SolveBudget& budget, SearchStrategy strategy,
                   std::int64_t lower_hint) {
  if (!formula.objective()) return solve_decision(formula, config, budget);
  MinimizeRun run(formula, config, budget);

  // Every strategy opens with an unconstrained probe: Infeasible is
  // decided once, and the incumbent immediately commits the permanent
  // upper bound that all later probes benefit from.
  const SolveResult first = run.probe();
  if (first == SolveResult::Unsat) return run.finish(OptStatus::Infeasible);
  if (first == SolveResult::Unknown) return run.finish(OptStatus::Unknown);
  run.record_incumbent();

  std::int64_t lb = run.ladder.min_value();
  // Core mining needs the committed incumbent bound (ladder path) for two
  // reasons: the mined lb feeds the ladder bisection only, and without
  // the bound a mining Sat model may be WORSE than the incumbent — the
  // bound guarantees every later model strictly improves, which is what
  // lets record_incumbent overwrite unconditionally.
  if (strategy == SearchStrategy::CoreGuided && run.ladder.ok()) {
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
    lb += lifted;
    // Mined cores are proofs: even if the budget trips before bisection,
    // the lifted floor is a sound bound to hand back.
    if (lb > run.result.lower_bound) run.result.lower_bound = lb;
  }

  if (strategy != SearchStrategy::Linear && run.ladder.ok()) {
    return run.finish(run.bisect(std::max(lower_hint, lb)));
  }
  return run.finish(run.strengthen());
}

}  // namespace symcolor
