// SolveBudget semantics and the budgeted-solve contract: unlimited
// defaults, child clamping against the parent chain, async interrupt
// (same-thread and cross-thread, with bounded latency), per-kind budget
// trips in the CDCL loop, minimize()'s whole-run caps, and graceful
// degradation through the optimizer and the SAT-loop / exact colorers.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "coloring/encoder.h"
#include "coloring/exact_colorer.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "sat/parallel_solver.h"
#include "util/budget.h"

namespace symcolor {
namespace {

Formula pigeonhole_formula(int pigeons, int holes) {
  Formula f;
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(f.new_var());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) {
      c.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_clause(std::move(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_clause({Lit::negative(in[static_cast<std::size_t>(p1)]
                                      [static_cast<std::size_t>(h)]),
                      Lit::negative(in[static_cast<std::size_t>(p2)]
                                      [static_cast<std::size_t>(h)])});
      }
    }
  }
  return f;
}

// ---- SolveBudget semantics ----

TEST(SolveBudget, DefaultIsUnlimited) {
  const SolveBudget b;
  EXPECT_TRUE(b.unlimited());
  EXPECT_FALSE(b.deadline_expired());
  EXPECT_FALSE(b.interrupted());
  EXPECT_EQ(b.conflict_budget(), 0);
  EXPECT_EQ(b.prop_budget(), 0);
  EXPECT_EQ(b.poll(), BudgetTrip::None);
}

TEST(SolveBudget, ZeroAndNegativeLimitsMeanUnlimited) {
  const SolveBudget zero(0.0, 0, 0);
  EXPECT_TRUE(zero.unlimited());
  const SolveBudget negative(-3.0, -10, -10);
  EXPECT_TRUE(negative.unlimited());
  EXPECT_FALSE(negative.deadline_expired());
  EXPECT_EQ(negative.conflict_budget(), 0);
  EXPECT_EQ(negative.prop_budget(), 0);
}

TEST(SolveBudget, ArmedLimitsAreVisible) {
  const SolveBudget b(3600.0, 100, 2000);
  EXPECT_FALSE(b.unlimited());
  EXPECT_EQ(b.conflict_budget(), 100);
  EXPECT_EQ(b.prop_budget(), 2000);
  EXPECT_GT(b.remaining_seconds(), 0.0);
}

TEST(SolveBudget, RemainingSecondsClampsAtZeroAfterExpiry) {
  const SolveBudget b(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(b.deadline_expired());
  EXPECT_EQ(b.remaining_seconds(), 0.0);
  EXPECT_EQ(b.poll(), BudgetTrip::Deadline);
}

TEST(SolveBudget, InterruptSetsClearsAndDominatesDeadline) {
  const SolveBudget b(1e-9);  // already expired
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  b.interrupt();
  EXPECT_TRUE(b.interrupted());
  // poll() reports the interrupt even though the deadline also fired.
  EXPECT_EQ(b.poll(), BudgetTrip::Interrupt);
  b.clear_interrupt();
  EXPECT_FALSE(b.interrupted());
  EXPECT_EQ(b.poll(), BudgetTrip::Deadline);
}

TEST(SolveBudget, DeadlineConversionCarriesElapsedTime) {
  const Deadline expired(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const SolveBudget b = expired;  // implicit migration shim
  EXPECT_TRUE(b.deadline_expired());
  const SolveBudget open = Deadline{};
  EXPECT_TRUE(open.unlimited());
}

// ---- child clamping against the parent chain ----

TEST(SolveBudgetChild, CountedCapsNeverExceedParent) {
  const SolveBudget parent(0.0, 100, 1000);
  // Asking for more than the parent has is clamped down.
  const SolveBudget greedy = parent.child(0.0, 500, 5000);
  EXPECT_EQ(greedy.conflict_budget(), 100);
  EXPECT_EQ(greedy.prop_budget(), 1000);
  // Asking for less keeps the tighter value.
  const SolveBudget modest = parent.child(0.0, 10, 50);
  EXPECT_EQ(modest.conflict_budget(), 10);
  EXPECT_EQ(modest.prop_budget(), 50);
  // Asking for nothing inherits the parent's caps (a child can never be
  // less constrained than its parent).
  const SolveBudget inherit = parent.child();
  EXPECT_EQ(inherit.conflict_budget(), 100);
  EXPECT_EQ(inherit.prop_budget(), 1000);
}

TEST(SolveBudgetChild, UnlimitedParentPassesChildLimitsThrough) {
  const SolveBudget parent;
  const SolveBudget child = parent.child(0.0, 42, 7);
  EXPECT_EQ(child.conflict_budget(), 42);
  EXPECT_EQ(child.prop_budget(), 7);
  EXPECT_FALSE(child.unlimited());
  EXPECT_TRUE(parent.child().unlimited());
}

TEST(SolveBudgetChild, WallClockClampedToParentRemaining) {
  const SolveBudget parent(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // The parent is spent: any child deadline is already expired too.
  const SolveBudget child = parent.child(3600.0);
  EXPECT_TRUE(child.deadline_expired());
  EXPECT_EQ(child.poll(), BudgetTrip::Deadline);
}

TEST(SolveBudgetChild, ParentInterruptPreemptsDescendants) {
  const SolveBudget parent;
  const SolveBudget child = parent.child(3600.0);
  const SolveBudget grandchild = child.child(60.0);
  EXPECT_EQ(grandchild.poll(), BudgetTrip::None);
  parent.interrupt();
  EXPECT_TRUE(child.interrupted());
  EXPECT_TRUE(grandchild.interrupted());
  EXPECT_EQ(grandchild.poll(), BudgetTrip::Interrupt);
  // Clearing the CHILD does not silence the parent-level interrupt.
  child.clear_interrupt();
  EXPECT_TRUE(child.interrupted());
  parent.clear_interrupt();
  EXPECT_FALSE(grandchild.interrupted());
}

// ---- CDCL budget trips ----

TEST(CdclBudget, ConflictBudgetTripsAndIsRecorded) {
  CdclSolver solver(pigeonhole_formula(8, 7));
  const SolveBudget budget(0.0, 100);
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Conflicts);
  EXPECT_EQ(solver.stats().conflict_budget_exits, 1);
  // The cap is enforced on every iteration: no overshoot beyond the
  // conflicts of the final step.
  EXPECT_GE(solver.stats().conflicts, 100);
  EXPECT_LE(solver.stats().conflicts, 110);
}

TEST(CdclBudget, PropagationBudgetTrips) {
  CdclSolver solver(pigeonhole_formula(8, 7));
  const SolveBudget budget(0.0, 0, 500);
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Propagations);
  EXPECT_EQ(solver.stats().prop_budget_exits, 1);
}

TEST(CdclBudget, DeadlineTripsViaBudget) {
  CdclSolver solver(pigeonhole_formula(9, 8));
  const SolveBudget budget(1e-6);
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Deadline);
  EXPECT_EQ(solver.stats().deadline_exits, 1);
}

TEST(CdclBudget, SuccessfulSolveReportsNoTrip) {
  CdclSolver solver(pigeonhole_formula(6, 5));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::None);
  EXPECT_EQ(solver.stats().deadline_exits, 0);
  EXPECT_EQ(solver.stats().interrupt_exits, 0);
}

// ---- interrupt latency (the preemption contract) ----

TEST(CdclInterrupt, PresetInterruptStopsWithinBoundedConflicts) {
  // The interrupt is polled every 256 search steps, so a solve entered
  // with the flag already raised must give up almost immediately — far
  // inside this instance's full search.
  CdclSolver solver(pigeonhole_formula(10, 9));
  const SolveBudget budget;
  budget.interrupt();
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Interrupt);
  EXPECT_EQ(solver.stats().interrupt_exits, 1);
  EXPECT_LE(solver.stats().conflicts, 1024) << "interrupt latency unbounded";
}

TEST(CdclInterrupt, StickyInterruptPreemptsNextSolveByDesign) {
  // The stale-interrupt contract on reused engines (see
  // SolveBudget::interrupt() and CdclSolver::solve()): solve() never
  // clears the flag, so an interrupt raised AFTER solve N returns
  // preempts solve N+1 at its entry poll — run-wide kill-switch
  // semantics — and clear_interrupt() is the owner's documented re-arm.
  CdclSolver solver(pigeonhole_formula(5, 6));
  const SolveBudget budget;
  EXPECT_EQ(solver.solve(budget), SolveResult::Sat);
  budget.interrupt();
  const std::int64_t before = solver.stats().conflicts;
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Interrupt);
  EXPECT_EQ(solver.stats().conflicts, before) << "preempted solve did work";
  budget.clear_interrupt();
  EXPECT_EQ(solver.solve(budget), SolveResult::Sat);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::None);
}

TEST(CdclInterrupt, PoolStopDoesNotLeakAcrossSolves) {
  // The first-answer stop interrupts the pool's own child budget, which
  // is frame-local to each solve(): a second solve on the same engine
  // starts clean and reaches a definitive answer again, and the caller's
  // budget is never interrupted.
  SolverConfig config;
  config.portfolio_threads = 2;
  ParallelSolver solver(pigeonhole_formula(5, 6), config);
  const SolveBudget budget;
  EXPECT_EQ(solver.solve(budget), SolveResult::Sat);
  EXPECT_EQ(solver.solve(budget), SolveResult::Sat);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::None);
  EXPECT_FALSE(budget.interrupted());
}

TEST(CdclInterrupt, CrossThreadInterruptStopsTheSolve) {
  // php(10,9) is far beyond what the backstop deadline allows to finish:
  // if the asynchronous interrupt did not preempt the solve promptly, the
  // trip would be Deadline (after 60 s) and the assertions would fail.
  CdclSolver solver(pigeonhole_formula(10, 9));
  const SolveBudget budget(60.0);
  std::thread interrupter([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    budget.interrupt();
  });
  const SolveResult r = solver.solve(budget);
  interrupter.join();
  EXPECT_EQ(r, SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Interrupt);

  // clear_interrupt() re-arms the same budget for a fresh solve.
  budget.clear_interrupt();
  CdclSolver quick(pigeonhole_formula(6, 5));
  EXPECT_EQ(quick.solve(budget), SolveResult::Unsat);
  EXPECT_EQ(quick.last_trip(), BudgetTrip::None);
}

// ---- optimizer degradation ----

TEST(OptimizerBudget, DecisionUnderExhaustedBudgetIsUnknownNeverFeasible) {
  const SolverConfig config = profile_config(SolverKind::PbsII);
  const SolveBudget budget(0.0, 5);
  const OptResult r =
      solve_decision(pigeonhole_formula(9, 8), config, budget);
  EXPECT_EQ(r.status, OptStatus::Unknown);
  EXPECT_TRUE(r.model.empty());
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.tripped, BudgetTrip::Conflicts);
}

TEST(OptimizerBudget, MinimizeWithNoIncumbentReportsUnknown) {
  // A conflict budget too small for even the first probe: the run must
  // report Unknown with an empty model — never Feasible with garbage.
  Formula f = pigeonhole_formula(9, 8);
  Objective obj;
  for (Var v = 0; v < 8; ++v) obj.terms.push_back({1, Lit::positive(v)});
  f.set_objective(obj);
  const SolverConfig config = profile_config(SolverKind::PbsII);
  const OptResult r =
      minimize(f, config, SolveBudget(0.0, 10), SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Unknown);
  EXPECT_TRUE(r.model.empty());
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_NE(r.tripped, BudgetTrip::None);
}

/// php(8, 8) minimizing the pigeons in hole 0. Every model puts exactly
/// one pigeon there, so the first probe's incumbent is optimal, yet the
/// proof — refuting php(8, 7) — runs far past a few hundred conflicts.
Formula hole_zero_minimization() {
  Formula f = pigeonhole_formula(8, 8);
  Objective obj;
  for (Var p = 0; p < 8; ++p) obj.terms.push_back({1, Lit::positive(p * 8)});
  f.set_objective(obj);
  return f;
}

TEST(OptimizerBudget, SpentConflictCapRefusesEveryLaterProbe) {
  // Core-guided search: the incumbent probe, then a mining probe that
  // spends the rest of the whole-run cap. Bisection then asks for one
  // more probe, which must be refused without a solve: no probe runs on
  // a spent cap, however cheap it would be.
  const SolverConfig config = profile_config(SolverKind::PbsII);
  const OptResult r = minimize(hole_zero_minimization(), config,
                               SolveBudget(0.0, 300),
                               SearchStrategy::CoreGuided);
  EXPECT_EQ(r.status, OptStatus::Feasible);
  EXPECT_EQ(r.best_value, 1);
  EXPECT_EQ(r.probes, 2);
  EXPECT_EQ(r.tripped, BudgetTrip::Conflicts);
  EXPECT_EQ(r.stats.conflicts, 300) << "the run overspent its cap";
}

TEST(OptimizerBudget, SpentPropagationCapRefusesEveryLaterProbe) {
  const SolverConfig config = profile_config(SolverKind::PbsII);
  const OptResult r = minimize(hole_zero_minimization(), config,
                               SolveBudget(0.0, 0, 20000),
                               SearchStrategy::CoreGuided);
  EXPECT_EQ(r.status, OptStatus::Feasible);
  EXPECT_EQ(r.probes, 2);
  EXPECT_EQ(r.tripped, BudgetTrip::Propagations);
}

TEST(OptimizerBudget, InterruptedBudgetRunsNoProbe) {
  SolveBudget budget;
  budget.interrupt();
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    const OptResult r =
        minimize(hole_zero_minimization(), {}, budget, strategy);
    EXPECT_EQ(r.status, OptStatus::Unknown) << search_strategy_name(strategy);
    EXPECT_EQ(r.probes, 0) << search_strategy_name(strategy);
    EXPECT_EQ(r.tripped, BudgetTrip::Interrupt)
        << search_strategy_name(strategy);
    EXPECT_EQ(r.stats.decisions, 0) << search_strategy_name(strategy);
  }
}

TEST(OptimizerBudget, DegradationKeepsIncumbentAndProvenBound) {
  // Sweep conflict budgets from starved to ample on a queen5 coloring
  // minimization (optimum 5), encoded WITHOUT SBPs so the optimality
  // proof costs ~1000 conflicts and a genuine Feasible window exists
  // between "no incumbent yet" and "proved optimal". Every budgeted
  // exit must satisfy the degradation contract.
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_coloring(g, 7, SbpOptions::none());
  const SolverConfig config = profile_config(SolverKind::PbsII);

  bool saw_feasible = false;
  OptResult final_result;
  for (std::int64_t cap = 50; cap <= 100000; cap = cap * 2) {
    const OptResult r = minimize(enc.formula, config, SolveBudget(0.0, cap),
                                 SearchStrategy::Linear);
    if (r.status == OptStatus::Unknown) {
      EXPECT_TRUE(r.model.empty());
      EXPECT_TRUE(r.budget_exhausted);
      continue;
    }
    if (r.status == OptStatus::Feasible) {
      saw_feasible = true;
      EXPECT_FALSE(r.model.empty());
      EXPECT_TRUE(r.budget_exhausted);
      EXPECT_NE(r.tripped, BudgetTrip::None);
      // The incumbent is an upper bound, the proven bound a lower one.
      EXPECT_GE(r.best_value, 5);
      EXPECT_LE(r.lower_bound, r.best_value);
      continue;
    }
    ASSERT_EQ(r.status, OptStatus::Optimal);
    final_result = r;
    break;
  }
  EXPECT_TRUE(saw_feasible) << "no budget hit the Feasible window";
  ASSERT_EQ(final_result.status, OptStatus::Optimal);
  EXPECT_EQ(final_result.best_value, 5);
  EXPECT_EQ(final_result.lower_bound, 5);
  EXPECT_EQ(final_result.tripped, BudgetTrip::None);
  EXPECT_FALSE(final_result.budget_exhausted);
}

TEST(OptimizerBudget, AllStrategiesDegradeGracefully) {
  // Tiny whole-run conflict budget under each strategy: the status must
  // be internally consistent (Feasible => model; Unknown => no model) and
  // the trip recorded.
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_coloring(g, 7, SbpOptions::none());
  const SolverConfig config = profile_config(SolverKind::PbsII);
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    const OptResult r = minimize(enc.formula, config, SolveBudget(0.0, 200),
                                 strategy);
    if (r.status == OptStatus::Optimal) continue;  // got lucky: fine
    EXPECT_TRUE(r.budget_exhausted) << search_strategy_name(strategy);
    EXPECT_NE(r.tripped, BudgetTrip::None) << search_strategy_name(strategy);
    if (r.status == OptStatus::Feasible) {
      EXPECT_FALSE(r.model.empty()) << search_strategy_name(strategy);
      EXPECT_LE(r.lower_bound, r.best_value) << search_strategy_name(strategy);
    } else {
      EXPECT_EQ(r.status, OptStatus::Unknown);
      EXPECT_TRUE(r.model.empty()) << search_strategy_name(strategy);
    }
  }
}

// ---- colorer degradation ----

TEST(ColoringBudget, SatLoopDegradesToBestColoringAndProvenBound) {
  // myciel4: chi = 5, clique number 2 — the k=4 UNSAT proof cannot fit in
  // a 5-conflict budget, so the loop must stop with the DSATUR coloring
  // and the clique lower bound.
  const Graph g = make_myciel_dimacs(4);
  ColoringOptions options;
  options.conflict_budget = 5;
  const ColoringOutcome r = solve_coloring_sat_loop(g, options);
  EXPECT_EQ(r.status, OptStatus::Feasible);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.tripped, BudgetTrip::Conflicts);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  EXPECT_GE(r.num_colors, 5);
  EXPECT_GE(r.lower_bound, 2);
  EXPECT_LE(r.lower_bound, r.num_colors);
}

TEST(ColoringBudget, SatLoopOptimalRunProvesItsBound) {
  const Graph g = make_myciel_dimacs(3);
  const ColoringOutcome r = solve_coloring_sat_loop(g, {});
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 4);
  EXPECT_EQ(r.lower_bound, 4);
  EXPECT_EQ(r.tripped, BudgetTrip::None);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(ColoringBudget, SatLoopHonorsExternalInterruptedBudget) {
  // An already-interrupted external budget preempts every query: the loop
  // still degrades to the heuristic coloring instead of failing.
  const Graph g = make_myciel_dimacs(4);
  SolveBudget external;
  external.interrupt();
  ColoringOptions options;
  options.budget = &external;
  const ColoringOutcome r = solve_coloring_sat_loop(g, options);
  EXPECT_EQ(r.status, OptStatus::Feasible);
  EXPECT_EQ(r.tripped, BudgetTrip::Interrupt);
  EXPECT_TRUE(g.is_proper_coloring(r.coloring));
  EXPECT_GE(r.lower_bound, 1);
}

TEST(ColoringBudget, ShatterHonorsExternalInterruptedBudget) {
  // The symmetry stage polls the run's whole budget, not only its wall
  // clock: an already-interrupted external budget stops detection before
  // it completes, and the solve reports the interrupt.
  const Graph g = make_queen_graph(5, 5);
  SolveBudget external;
  external.interrupt();
  ColoringOptions options;
  options.sbps = SbpOptions::sc_only();
  options.instance_dependent_sbps = true;
  options.budget = &external;
  const ColoringOutcome r = solve_coloring(g, options);
  ASSERT_TRUE(r.symmetry.has_value());
  EXPECT_FALSE(r.symmetry->complete);
  EXPECT_EQ(r.tripped, BudgetTrip::Interrupt);
  EXPECT_FALSE(r.solved());
}

TEST(ColoringBudget, ExactColorerReportsTripAndBound) {
  const Graph g = make_queen_graph(5, 5);
  ColoringOptions options;
  options.max_colors = 7;
  options.conflict_budget = 10;
  const ColoringOutcome r = solve_coloring(g, options);
  EXPECT_FALSE(r.solved());
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.tripped, BudgetTrip::Conflicts);
  if (r.status == OptStatus::Feasible) {
    EXPECT_TRUE(g.is_proper_coloring(r.coloring));
    EXPECT_LE(r.lower_bound, r.num_colors);
  } else {
    EXPECT_EQ(r.status, OptStatus::Unknown);
    EXPECT_TRUE(r.coloring.empty());
  }
}

TEST(ColoringBudget, ExactColorerDecisionUnderInterruptIsUnknown) {
  const Graph g = make_queen_graph(5, 5);
  SolveBudget external;
  external.interrupt();
  ColoringOptions options;
  options.max_colors = 5;
  options.budget = &external;
  const ColoringOutcome r = solve_k_coloring(g, options);
  EXPECT_EQ(r.status, OptStatus::Unknown);
  EXPECT_TRUE(r.coloring.empty());
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.tripped, BudgetTrip::Interrupt);
}

}  // namespace
}  // namespace symcolor
