// Cube-and-conquer tests: queue semantics, lookahead generation, partition
// soundness (Sat/Unsat agreement with the 1-thread CDCL reference on the
// queen/myciel/random suite at 1, 2 and 4 workers), core-driven sibling
// pruning never killing a satisfiable cube, deterministic-mode
// reproducibility, budget-trip containment, dead-worker fault isolation,
// the aggregated all-workers stats view, and the sharded ClauseExchange.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/solver_profiles.h"
#include "sat/cubes.h"
#include "sat/parallel_solver.h"

namespace symcolor {
namespace {

/// Plain (SBP-free) queen5 coloring CNF: k=4 UNSAT in ~30 conflicts, k=5
/// SAT — hard enough that tiny warmups/slices exercise the cube phase.
Formula queen5_plain(int k) {
  return encode_k_coloring(make_queen_graph(5, 5), k, SbpOptions::none())
      .formula;
}

Formula myciel3_plain(int k) {
  return encode_k_coloring(make_myciel_dimacs(3), k, SbpOptions::none())
      .formula;
}

Formula pigeonhole_formula(int pigeons, int holes,
                           std::vector<std::vector<Var>>* vars = nullptr) {
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
      c.push_back(Lit::positive(in[static_cast<std::size_t>(p)]
                                  [static_cast<std::size_t>(h)]));
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
  if (vars != nullptr) *vars = std::move(in);
  return f;
}

/// Cube-engine config with warmup/slice small enough that even the test
/// instances reach the cube phase and trigger work-stealing splits.
SolverConfig cube_config(int depth, int threads,
                         std::int64_t warmup = 8,
                         std::int64_t slice = 64) {
  SolverConfig c = profile_config(SolverKind::PbsII);
  c.cube_depth = depth;
  c.portfolio_threads = threads;
  c.cube_warmup_conflicts = warmup;
  c.cube_conflict_slice = slice;
  return c;
}

// ---- CubeQueue semantics ----

TEST(CubeQueue, PopDrainsInDealOrderAndExhausts) {
  CubeQueue q;
  q.push({{Lit::positive(0)}, 1});
  q.push({{Lit::positive(1)}, 1});
  Cube c;
  ASSERT_TRUE(q.pop(&c));
  EXPECT_EQ(c.lits[0], Lit::positive(0));
  q.finish();
  ASSERT_TRUE(q.pop(&c));
  EXPECT_EQ(c.lits[0], Lit::positive(1));
  q.finish();
  // All outstanding work finished: pop reports exhaustion, not a block.
  EXPECT_FALSE(q.pop(&c));
}

TEST(CubeQueue, SplitKeepsOutstandingPositiveUntilChildrenFinish) {
  CubeQueue q;
  q.push({{Lit::positive(0)}, 1});
  Cube c;
  ASSERT_TRUE(q.pop(&c));
  // Split: children in before the parent is finished.
  q.push({{Lit::positive(0), Lit::positive(1)}, 2});
  q.push({{Lit::positive(0), Lit::negative(1)}, 2});
  q.finish();
  EXPECT_EQ(q.outstanding(), 2u);
  ASSERT_TRUE(q.pop(&c));
  q.finish();
  ASSERT_TRUE(q.pop(&c));
  q.finish();
  EXPECT_FALSE(q.pop(&c));
}

TEST(CubeQueue, PruneRemovesOnlyMatchingQueuedCubes) {
  CubeQueue q;
  q.push({{Lit::positive(0), Lit::positive(1)}, 2});
  q.push({{Lit::positive(0), Lit::negative(1)}, 2});
  q.push({{Lit::negative(0), Lit::positive(1)}, 2});
  // Prune everything containing +x0 — the sibling-subsumption shape.
  const std::size_t cut = q.prune([](const Cube& cube) {
    return std::find(cube.lits.begin(), cube.lits.end(),
                     Lit::positive(0)) != cube.lits.end();
  });
  EXPECT_EQ(cut, 2u);
  EXPECT_EQ(q.outstanding(), 1u);
  Cube c;
  ASSERT_TRUE(q.pop(&c));
  EXPECT_EQ(c.lits[0], Lit::negative(0));
  q.finish();
  EXPECT_FALSE(q.pop(&c));
}

TEST(CubeQueue, StopWakesAndFailsPop) {
  CubeQueue q;
  q.push({{Lit::positive(0)}, 1});
  q.stop();
  Cube c;
  EXPECT_FALSE(q.pop(&c));
}

// ---- lookahead generation ----

TEST(CubeGen, FrontierRespectsDepthAndDistinctness) {
  const Formula f = queen5_plain(5);
  CdclSolver probe(f, profile_config(SolverKind::PbsII));
  CubeGenOptions options;
  options.depth = 3;
  CubeGenStats stats;
  const std::vector<Cube> cubes = generate_cubes(probe, {}, options, &stats);
  ASSERT_FALSE(cubes.empty());
  EXPECT_FALSE(stats.root_refuted);
  EXPECT_GT(stats.probes, 0);
  EXPECT_LE(cubes.size(), 8u);  // 2^depth
  for (const Cube& c : cubes) {
    EXPECT_LE(c.depth, 3);
    EXPECT_LE(c.lits.size(), 3u);
  }
  // No two cubes may be identical (the partition would double-count).
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    for (std::size_t j = i + 1; j < cubes.size(); ++j) {
      EXPECT_NE(cubes[i].lits, cubes[j].lits);
    }
  }
}

TEST(CubeGen, RootRefutedOnPropagationUnsatPrefix) {
  std::vector<std::vector<Var>> vars;
  const Formula f = pigeonhole_formula(4, 4, &vars);
  CdclSolver probe(f, profile_config(SolverKind::PbsII));
  // Two pigeons assumed into one hole: refuted by one binary clause.
  const std::vector<Lit> clash = {Lit::positive(vars[0][0]),
                                  Lit::positive(vars[1][0])};
  CubeGenOptions options;
  CubeGenStats stats;
  const std::vector<Cube> cubes =
      generate_cubes(probe, clash, options, &stats);
  EXPECT_TRUE(cubes.empty());
  EXPECT_TRUE(stats.root_refuted);
  // The probe must leave the solver reusable.
  EXPECT_EQ(probe.solve(), SolveResult::Sat);
}

// ---- partition soundness: agreement with the sequential reference ----

TEST(CubeSolve, AgreesWithSequentialAcrossSuiteAndWorkerCounts) {
  struct Case {
    Formula formula;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({queen5_plain(4), "queen5 k=4"});
  cases.push_back({queen5_plain(5), "queen5 k=5"});
  cases.push_back({myciel3_plain(3), "myciel3 k=3"});
  cases.push_back({myciel3_plain(4), "myciel3 k=4"});
  cases.push_back(
      {encode_k_coloring(make_random_gnm(18, 60, 0xC0FFEE), 4,
                         SbpOptions::none())
           .formula,
       "gnm(18,60) k=4"});
  cases.push_back(
      {encode_k_coloring(make_random_gnm(18, 60, 0xC0FFEE), 6,
                         SbpOptions::none())
           .formula,
       "gnm(18,60) k=6"});
  for (const Case& c : cases) {
    CdclSolver reference(c.formula, profile_config(SolverKind::PbsII));
    const SolveResult expected = reference.solve();
    ASSERT_NE(expected, SolveResult::Unknown) << c.name;
    for (const int workers : {1, 2, 4}) {
      ParallelSolver solver(c.formula, cube_config(3, workers));
      const SolveResult got = solver.solve();
      EXPECT_EQ(got, expected) << c.name << " @ " << workers << " workers";
      if (got == SolveResult::Sat) {
        EXPECT_TRUE(c.formula.satisfied_by(solver.model()))
            << c.name << " @ " << workers << " workers";
      }
      if (got == SolveResult::Unsat) {
        // No caller assumptions: the Unsat certificate is an empty core.
        EXPECT_TRUE(solver.last_core().empty()) << c.name;
      }
    }
  }
}

TEST(CubeSolve, TinySlicesForceStealingSplitsWithoutChangingAnswers) {
  // Slice of 4 conflicts: nearly every cube comes back stuck, splits on
  // the stuck worker, and is re-dealt — the full work-stealing loop —
  // while answers must not move.
  for (const int workers : {1, 2}) {
    SolverConfig config = cube_config(2, workers, /*warmup=*/4, /*slice=*/4);
    ParallelSolver unsat(queen5_plain(4), config);
    EXPECT_EQ(unsat.solve(), SolveResult::Unsat) << workers << " workers";
    EXPECT_GT(unsat.stats().cubes_dealt + unsat.stats().cube_splits, 0)
        << workers << " workers";
    ParallelSolver sat(queen5_plain(5), config);
    EXPECT_EQ(sat.solve(), SolveResult::Sat) << workers << " workers";
    EXPECT_TRUE(queen5_plain(5).satisfied_by(sat.model()));
  }
}

TEST(CubeSolve, RefutationReportsCubeScheduleStats) {
  // queen6 at k=6 is UNSAT at ~15k conflicts — deep enough that the cube
  // schedule (refutations, possibly pruning) actually runs.
  const Formula f =
      encode_k_coloring(make_queen_graph(6, 6), 6, SbpOptions::nu_only())
          .formula;
  ParallelSolver solver(f, cube_config(3, 2, /*warmup=*/200,
                                             /*slice=*/2000));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().cubes_dealt, 0);
  EXPECT_GT(solver.stats().cubes_refuted, 0);
  // Aggregated view covers every worker: at least the winner's own work.
  EXPECT_GE(solver.aggregated_stats().conflicts, solver.stats().conflicts);
}

// ---- core semantics under caller assumptions ----

TEST(CubeSolve, AssumptionCoreIsValidSubsetOfAssumptions) {
  std::vector<std::vector<Var>> vars;
  const Formula f = pigeonhole_formula(5, 5, &vars);
  for (const int workers : {1, 2}) {
    ParallelSolver solver(f, cube_config(2, workers));
    // Three pigeons squeezed into two holes (plus untouched slack
    // everywhere else): unsat under the assumptions, sat without them.
    std::vector<Lit> assumptions;
    for (int p = 0; p < 3; ++p) {
      for (int h = 2; h < 5; ++h) {
        assumptions.push_back(Lit::negative(
            vars[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
      }
    }
    ASSERT_EQ(solver.solve({}, assumptions), SolveResult::Unsat);
    const std::span<const Lit> core = solver.last_core();
    EXPECT_FALSE(core.empty());
    for (const Lit l : core) {
      EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                assumptions.end())
          << "core literal is not an assumption";
    }
    // The reported core must itself refute (validity, not just shape).
    CdclSolver check(f, profile_config(SolverKind::PbsII));
    EXPECT_EQ(check.solve({}, core), SolveResult::Unsat);
    // And the engine must answer Sat once the assumptions are retracted.
    EXPECT_EQ(solver.solve(), SolveResult::Sat);
  }
}

TEST(CubeSolve, GenerationRefutedBranchKeepsItsAssumptionsInTheCore) {
  // Lookahead generation splits on v (it forces the most literals both
  // ways). Under assumption a1 the v=1 branch is then refuted by
  // propagation alone (both phases of w conflict), so it never becomes a
  // cube and no worker core records a1. The v=0 cubes are a pigeonhole
  // instance gated by a2. A core of the per-cube parts alone would be
  // {a2}, which does not refute: F with a2 alone has the v=1 models.
  Formula f;
  const Var a1 = f.new_var();
  const Var a2 = f.new_var();
  const Var v = f.new_var();
  const Var w = f.new_var();
  for (int i = 0; i < 6; ++i) {
    f.add_clause({Lit::negative(v), Lit::positive(f.new_var())});
    f.add_clause({Lit::positive(v), Lit::positive(f.new_var())});
  }
  for (const Lit wl : {Lit::negative(w), Lit::positive(w)}) {
    const Var r = f.new_var();
    f.add_clause({Lit::negative(a1), Lit::negative(v), wl, Lit::positive(r)});
    f.add_clause({Lit::negative(a1), Lit::negative(v), wl, Lit::negative(r)});
  }
  std::vector<std::vector<Var>> x(5);
  for (std::vector<Var>& pigeon : x) {
    Clause c{Lit::positive(v), Lit::negative(a2)};
    for (int h = 0; h < 4; ++h) {
      pigeon.push_back(f.new_var());
      c.push_back(Lit::positive(pigeon.back()));
    }
    f.add_clause(std::move(c));
  }
  for (std::size_t h = 0; h < 4; ++h) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = i + 1; j < x.size(); ++j) {
        f.add_clause({Lit::negative(x[i][h]), Lit::negative(x[j][h])});
      }
    }
  }
  const std::vector<Lit> assumptions{Lit::positive(a1), Lit::positive(a2)};
  CdclSolver alone(f, profile_config(SolverKind::PbsII));
  ASSERT_EQ(alone.solve({}, std::vector<Lit>{Lit::positive(a2)}),
            SolveResult::Sat);

  for (const int workers : {1, 2}) {
    // No warmup and no slicing: generation alone decides the partition.
    SolverConfig config = cube_config(2, workers, /*warmup=*/0, /*slice=*/0);
    config.cube_candidates = 64;
    config.cube_easy_frac = 1.0;
    ParallelSolver solver(f, config);
    ASSERT_EQ(solver.solve({}, assumptions), SolveResult::Unsat);
    const std::vector<Lit> core(solver.last_core().begin(),
                                solver.last_core().end());
    CdclSolver check(f, profile_config(SolverKind::PbsII));
    EXPECT_EQ(check.solve({}, core), SolveResult::Unsat)
        << workers << " workers: the core misses a1";
  }
}

TEST(CubeSolve, DepthBelowOneIsRejected) {
  for (const int depth : {0, -1}) {
    EXPECT_THROW(ParallelSolver(queen5_plain(5), cube_config(depth, 2)),
                 std::invalid_argument)
        << "depth " << depth;
  }
}

// ---- deterministic mode ----

TEST(CubeSolve, DeterministicModeReproducesAnswerModelAndStats) {
  for (const int k : {4, 5}) {
    SolverConfig config = cube_config(3, 4);
    config.portfolio_deterministic = true;
    ParallelSolver a(queen5_plain(k), config);
    ParallelSolver b(queen5_plain(k), config);
    const SolveResult ra = a.solve();
    const SolveResult rb = b.solve();
    EXPECT_EQ(ra, rb);
    EXPECT_EQ(a.model(), b.model());
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().cubes_dealt, b.stats().cubes_dealt);
    EXPECT_EQ(a.stats().cube_siblings_pruned, b.stats().cube_siblings_pruned);
  }
}

// ---- budget containment ----

TEST(CubeSolve, PresetInterruptReturnsUnknownWithTripThenRecovers) {
  SolveBudget budget;
  budget.interrupt();
  ParallelSolver solver(queen5_plain(5), cube_config(3, 2));
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Interrupt);
  budget.clear_interrupt();
  EXPECT_EQ(solver.solve(budget), SolveResult::Sat);
}

TEST(CubeSolve, ConflictBudgetTripsWithWellFormedStats) {
  // php(8,7) needs far more than 60 conflicts; the cap must surface as a
  // clean Unknown with a recorded trip, at any worker count.
  const Formula f = pigeonhole_formula(8, 7);
  for (const int workers : {1, 2}) {
    SolverConfig config = cube_config(2, workers, /*warmup=*/16,
                                      /*slice=*/16);
    config.cube_max_extra_depth = 1;  // converge to slice-free cubes fast
    ParallelSolver solver(f, config);
    const SolveBudget budget(0.0, /*conflicts=*/60, 0);
    EXPECT_EQ(solver.solve(budget), SolveResult::Unknown)
        << workers << " workers";
    EXPECT_NE(solver.last_trip(), BudgetTrip::None);
    EXPECT_GT(solver.stats().conflicts, 0);
    // Unknown never carries a stale model claim: solving unconstrained
    // afterwards still refutes.
    EXPECT_EQ(solver.solve(), SolveResult::Unsat) << workers << " workers";
  }
}

// ---- fault isolation ----

TEST(CubeFaults, DeadCubeWorkerIsContainedAndAnswersStayCorrect) {
  // Worker 1 is armed to die at its first conflict; the survivors answer.
  // A fast answer may end the pool before worker 1's first conflict, so
  // the death toll is 0 or 1 — never more, and never a wrong answer.
  for (const int workers : {2, 4}) {
    for (const int k : {4, 5}) {
      SolverConfig config =
          cube_config(3, workers, /*warmup=*/4, /*slice=*/32);
      config.fault_injection.worker = 1;
      config.fault_injection.throw_after_conflicts = 1;
      ParallelSolver solver(queen5_plain(k), config);
      const SolveResult want = k == 5 ? SolveResult::Sat : SolveResult::Unsat;
      EXPECT_EQ(solver.solve(), want) << workers << " workers, k=" << k;
      EXPECT_LE(solver.last_fault_count(), 1) << workers << " workers";
      // The fault spec is one-shot: a later solve runs healthy.
      if (solver.last_fault_count() == 1) {
        EXPECT_EQ(solver.solve(), want) << workers << " workers, k=" << k;
        EXPECT_EQ(solver.last_fault_count(), 0);
      }
    }
  }
}

TEST(CubeFaults, AllWorkersDeadRethrows) {
  // No warmup, so the master dies in the pool beside the clone, and with
  // nobody left to answer the pool must surface the failure, not
  // fabricate a result.
  SolverConfig config = cube_config(3, 2, /*warmup=*/0, /*slice=*/32);
  config.fault_injection.worker = -1;  // every worker
  config.fault_injection.throw_after_conflicts = 1;
  ParallelSolver solver(queen5_plain(4), config);
  EXPECT_THROW(solver.solve(), std::exception);
}

// ---- aggregated stats ----

TEST(AggregatedStats, SequentialEngineAggregatedEqualsStats) {
  CdclSolver solver(queen5_plain(4), profile_config(SolverKind::PbsII));
  ASSERT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_EQ(&solver.aggregated_stats(), &solver.stats());
}

TEST(AggregatedStats, CubeAggregatedIncludesWarmupAndWorkers) {
  ParallelSolver solver(queen5_plain(4), cube_config(3, 2));
  ASSERT_EQ(solver.solve(), SolveResult::Unsat);
  const std::int64_t first = solver.aggregated_stats().conflicts;
  EXPECT_GE(first, solver.stats().conflicts);
  EXPECT_GT(solver.aggregated_stats().propagations, 0);
  ASSERT_EQ(solver.solve(), SolveResult::Unsat);
  // Cumulative across solves — never reset, though an incremental
  // re-solve may refute at the root for free off retained learnts.
  EXPECT_GE(solver.aggregated_stats().conflicts, first);
}

// ---- sharded ClauseExchange ----

TEST(ShardedExchange, ImportSeesAllForeignShardsAndSkipsOwn) {
  ClauseExchange exchange(64, 4);
  const std::vector<Lit> c0 = {Lit::positive(0), Lit::positive(1)};
  const std::vector<Lit> c1 = {Lit::negative(1), Lit::positive(2)};
  const std::vector<Lit> c2 = {Lit::negative(2)};
  EXPECT_TRUE(exchange.export_clause(0, c0, 2));
  EXPECT_TRUE(exchange.export_clause(1, c1, 2));
  EXPECT_TRUE(exchange.export_clause(2, c2, 1));
  EXPECT_EQ(exchange.exported(), 3u);

  std::size_t cursor = 0;
  std::vector<SharedClause> got;
  exchange.import_clauses(0, &cursor, &got);
  ASSERT_EQ(got.size(), 2u);  // workers 1 and 2, own shard skipped
  EXPECT_EQ(cursor, 3u);
  // Cursor advanced: a re-import drains nothing new.
  got.clear();
  exchange.import_clauses(0, &cursor, &got);
  EXPECT_TRUE(got.empty());
  // A later export is picked up from the cursor onwards.
  EXPECT_TRUE(exchange.export_clause(3, c0, 2));
  exchange.import_clauses(0, &cursor, &got);
  EXPECT_EQ(got.size(), 1u);
}

TEST(ShardedExchange, CapacityBoundsAcceptanceAcrossShards) {
  ClauseExchange exchange(2, 4);
  const std::vector<Lit> c = {Lit::positive(0)};
  EXPECT_TRUE(exchange.export_clause(0, c, 1));
  EXPECT_TRUE(exchange.export_clause(1, c, 1));
  EXPECT_FALSE(exchange.export_clause(2, c, 1));  // global cap, not per-shard
  EXPECT_EQ(exchange.exported(), 2u);
  EXPECT_EQ(exchange.dropped(), 1u);
  std::size_t cursor = 0;
  std::vector<SharedClause> got;
  exchange.import_clauses(3, &cursor, &got);
  EXPECT_EQ(got.size(), 2u);
}

TEST(ShardedExchange, OutOfRangeWorkerSharesLastShardCorrectly) {
  ClauseExchange exchange(8, 2);  // workers 5 and 7 clamp onto shard 1
  const std::vector<Lit> c = {Lit::positive(0)};
  EXPECT_TRUE(exchange.export_clause(5, c, 1));
  EXPECT_TRUE(exchange.export_clause(7, c, 1));
  std::size_t cursor = 0;
  std::vector<SharedClause> got;
  // Worker 5 still skips only its OWN exports (entries carry the worker
  // id, not just the shard index).
  exchange.import_clauses(5, &cursor, &got);
  EXPECT_EQ(got.size(), 1u);
}

}  // namespace
}  // namespace symcolor
