// Parallel engine / SolverEngine tests: clone equivalence,
// deterministic-mode reproducibility, core-clause import soundness on the
// queen/myciel suite, 2-vs-1-thread agreement across the SAT-loop and PB
// optimizer paths, restart blocking, the conflict-interval reduce
// schedule, per-worker seed mixing, and a randomized differential test of
// both schedules against the sequential engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "coloring/exact_colorer.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "sat/parallel_solver.h"
#include "util/rng.h"

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
  return f;
}

/// queen5 K-colorability CNF (chi(queen5) = 5, so k=4 is UNSAT, k=5 SAT).
Formula queen5_formula(int k) {
  const Graph g = make_queen_graph(5, 5);
  return encode_k_coloring(g, k, SbpOptions::nu_sc()).formula;
}

// ---- SolverEngine interface ----

TEST(SolverEngineIface, FactoryPicksBackendByThreadCount) {
  const Formula sat = queen5_formula(5);
  const Formula unsat = queen5_formula(4);
  for (const int threads : {1, 3}) {
    SolverConfig config = profile_config(SolverKind::PbsII);
    config.portfolio_threads = threads;
    const std::unique_ptr<SolverEngine> a = make_solver_engine(sat, config);
    EXPECT_EQ(a->solve(), SolveResult::Sat) << threads << " threads";
    EXPECT_TRUE(sat.satisfied_by(a->model()));
    const std::unique_ptr<SolverEngine> b = make_solver_engine(unsat, config);
    EXPECT_EQ(b->solve(), SolveResult::Unsat) << threads << " threads";
  }
}

TEST(SolverEngineIface, CloneThroughInterfaceIsIndependent) {
  const Formula f = queen5_formula(5);
  const std::unique_ptr<SolverEngine> master =
      make_solver_engine(f, profile_config(SolverKind::PbsII));
  const std::unique_ptr<SolverEngine> copy = master->clone();
  EXPECT_EQ(master->solve(), SolveResult::Sat);
  // Constraints added to the original never reach the earlier clone.
  EXPECT_EQ(copy->num_vars(), master->num_vars());
  EXPECT_EQ(copy->solve(), SolveResult::Sat);
}

// ---- clone equivalence ----

TEST(SolverClone, ReproducesResultAndStatsOnFixedInstance) {
  for (const int k : {4, 5}) {
    const Formula f = queen5_formula(k);
    const CdclSolver master(f, profile_config(SolverKind::PbsII));
    CdclSolver clone(master);
    CdclSolver reference(f, profile_config(SolverKind::PbsII));
    const SolveResult rc = clone.solve();
    const SolveResult rr = reference.solve();
    EXPECT_EQ(rc, rr) << "k=" << k;
    // Identical state + identical config => the clone must retrace the
    // master's search step for step.
    EXPECT_EQ(clone.stats().decisions, reference.stats().decisions);
    EXPECT_EQ(clone.stats().conflicts, reference.stats().conflicts);
    EXPECT_EQ(clone.stats().propagations, reference.stats().propagations);
    EXPECT_EQ(clone.stats().restarts, reference.stats().restarts);
    EXPECT_EQ(clone.stats().learned_clauses,
              reference.stats().learned_clauses);
    if (rc == SolveResult::Sat) {
      EXPECT_EQ(clone.model(), reference.model());
    }
  }
}

TEST(SolverClone, MidSearchCloneCarriesLearnedState) {
  const SolverConfig config = profile_config(SolverKind::PbsII);
  CdclSolver master(pigeonhole_formula(7, 6), config);
  // The budget must bite.
  ASSERT_EQ(master.solve(SolveBudget(0.0, 100)), SolveResult::Unknown);
  ASSERT_GT(master.stats().learned_clauses, 0);

  CdclSolver clone(master);
  master.reconfigure(config);
  clone.reconfigure(config);
  EXPECT_EQ(master.solve(), SolveResult::Unsat);
  EXPECT_EQ(clone.solve(), SolveResult::Unsat);
  // Same mid-search snapshot, same config: the continuations coincide.
  EXPECT_EQ(master.stats().conflicts, clone.stats().conflicts);
  EXPECT_EQ(master.stats().decisions, clone.stats().decisions);
  EXPECT_EQ(master.stats().propagations, clone.stats().propagations);
}

// ---- portfolio determinism and soundness ----

TEST(Portfolio, DeterministicModeIsReproducible) {
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 4;
  config.portfolio_deterministic = true;
  const Formula f = queen5_formula(5);

  ParallelSolver a(f, config);
  ParallelSolver b(f, config);
  ASSERT_EQ(a.solve(), SolveResult::Sat);
  ASSERT_EQ(b.solve(), SolveResult::Sat);
  EXPECT_EQ(a.model(), b.model());
  EXPECT_EQ(a.last_winner(), b.last_winner());

  // The deterministic winner is the lowest-indexed definitive worker —
  // the master — so the surfaced model matches the sequential engine's.
  SolverConfig sequential = config;
  sequential.portfolio_threads = 1;
  CdclSolver reference(f, sequential);
  ASSERT_EQ(reference.solve(), SolveResult::Sat);
  EXPECT_EQ(a.last_winner(), 0);
  EXPECT_EQ(a.model(), reference.model());
}

TEST(Portfolio, ImportSoundnessOnQueenMycielSuite) {
  // Racing mode with clause sharing on: imported core clauses must never
  // flip a SAT/UNSAT answer. chi(queen5) = 5, chi(myciel3) = 4.
  struct Case {
    Formula formula;
    SolveResult expected;
  };
  std::vector<Case> cases;
  cases.push_back({queen5_formula(4), SolveResult::Unsat});
  cases.push_back({queen5_formula(5), SolveResult::Sat});
  const Graph myciel = make_myciel_dimacs(3);
  cases.push_back({encode_k_coloring(myciel, 3, SbpOptions::nu_sc()).formula,
                   SolveResult::Unsat});
  cases.push_back({encode_k_coloring(myciel, 4, SbpOptions::nu_sc()).formula,
                   SolveResult::Sat});

  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 4;
  config.share_max_lbd = 3;  // share a little more than the default glue
  for (const Case& c : cases) {
    for (int round = 0; round < 3; ++round) {  // vary thread interleaving
      ParallelSolver solver(c.formula, config);
      EXPECT_EQ(solver.solve(), c.expected) << "round " << round;
      if (c.expected == SolveResult::Sat) {
        EXPECT_TRUE(c.formula.satisfied_by(solver.model()));
      }
    }
  }
}

TEST(Portfolio, IncrementalModelEnumerationMatchesSequential) {
  // Enumerate all models of "exactly one of three vars" by repeatedly
  // blocking the last model through the engine interface: the count must
  // be 3 at any thread count, proving add_clause lands in the master and
  // survives the parallel solves.
  for (const int threads : {1, 2, 4}) {
    Formula f;
    const Var v0 = f.new_var();
    const Var v1 = f.new_var();
    const Var v2 = f.new_var();
    f.add_exactly({Lit::positive(v0), Lit::positive(v1), Lit::positive(v2)},
                  1);
    SolverConfig config = profile_config(SolverKind::PbsII);
    config.portfolio_threads = threads;
    const std::unique_ptr<SolverEngine> engine = make_solver_engine(f, config);
    int models = 0;
    while (engine->solve() == SolveResult::Sat && models <= 4) {
      ++models;
      Clause block;
      for (Var v = 0; v < engine->num_vars(); ++v) {
        const LBool value = engine->model()[static_cast<std::size_t>(v)];
        block.push_back(value == LBool::True ? Lit::negative(v)
                                             : Lit::positive(v));
      }
      if (!engine->add_clause(std::move(block))) break;
    }
    EXPECT_EQ(models, 3) << threads << " threads";
  }
}

// ---- 2-vs-1-thread agreement across the call layers ----

TEST(Portfolio, SatLoopAgreesAcrossThreadCounts) {
  // ColoringOptions::threads is the SAT loop's one thread knob; 1 vs 2
  // threads must agree on the optimum under every search strategy, both
  // racing full copies (CLI --satloop --threads 2) and under the cube
  // schedule (--threads 2 --cube-depth 2). myciel3 leaves a gap between
  // its clique (2) and DSATUR bounds, so every row makes SAT calls.
  const Graph g = make_myciel_dimacs(3);
  // On myciel3 every query ends inside the cube schedule's default warmup,
  // so the cube row runs on myciel5 (chi 6), which deals cubes.
  const Graph cube_graph = make_myciel_dimacs(5);
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    const std::string name = search_strategy_name(strategy);
    ColoringOptions one;
    one.search = strategy;
    const ColoringOutcome r1 = solve_coloring_sat_loop(g, one);
    ASSERT_EQ(r1.status, OptStatus::Optimal) << name;
    EXPECT_EQ(r1.num_colors, 4) << name;
    EXPECT_GT(r1.sat_calls, 0) << name;

    ColoringOptions race = one;
    race.threads = 2;
    const ColoringOutcome r2 = solve_coloring_sat_loop(g, race);
    ASSERT_EQ(r2.status, OptStatus::Optimal) << name;
    EXPECT_EQ(r2.num_colors, r1.num_colors) << name;
    EXPECT_TRUE(g.is_proper_coloring(r2.coloring)) << name;
    EXPECT_GT(r2.sat_calls, 0) << name;

    ColoringOptions cubes = race;
    cubes.cube_depth = 2;
    const ColoringOutcome rc = solve_coloring_sat_loop(cube_graph, cubes);
    ASSERT_EQ(rc.status, OptStatus::Optimal) << name;
    EXPECT_EQ(rc.num_colors, 6) << name;
    EXPECT_TRUE(cube_graph.is_proper_coloring(rc.coloring)) << name;
    EXPECT_GT(rc.solver_stats_all.cubes_dealt, 0) << name;
  }
}

TEST(Portfolio, OptimizerAgreesAcrossThreadCounts) {
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_coloring(g, 7, SbpOptions::nu_sc());
  SolverConfig one = profile_config(SolverKind::PbsII);
  SolverConfig two = one;
  two.portfolio_threads = 2;

  const OptResult l1 = minimize(enc.formula, one, {}, SearchStrategy::Linear);
  const OptResult l2 = minimize(enc.formula, two, {}, SearchStrategy::Linear);
  ASSERT_EQ(l1.status, OptStatus::Optimal);
  ASSERT_EQ(l2.status, OptStatus::Optimal);
  EXPECT_EQ(l1.best_value, 5);
  EXPECT_EQ(l2.best_value, l1.best_value);

  const OptResult b2 = minimize(enc.formula, two, {}, SearchStrategy::Binary);
  ASSERT_EQ(b2.status, OptStatus::Optimal);
  EXPECT_EQ(b2.best_value, l1.best_value);

  const OptResult c2 = minimize(enc.formula, two, SolveBudget{},
                                SearchStrategy::CoreGuided);
  ASSERT_EQ(c2.status, OptStatus::Optimal);
  EXPECT_EQ(c2.best_value, l1.best_value);
}

// ---- per-worker seed mixing ----

TEST(WorkerSeeds, MixingIsIdentityForMasterAndDistinctAcrossWorkers) {
  const std::uint64_t base = 0x1B52;  // the PBS II profile seed
  EXPECT_EQ(mix_worker_seed(base, 0), base);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i <= 8; ++i) seeds.push_back(mix_worker_seed(base, i));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
    }
  }
  // Small consecutive base seeds must not alias each other's streams.
  EXPECT_NE(mix_worker_seed(1, 1), mix_worker_seed(2, 1));
  EXPECT_NE(mix_worker_seed(1, 2), mix_worker_seed(2, 1));
}

TEST(WorkerSeeds, DiversifiedConfigsReseedAndVary) {
  const SolverConfig base = profile_config(SolverKind::PbsII);
  EXPECT_EQ(diversify_config(base, 0).random_seed, base.random_seed);
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i <= 4; ++i) {
    const SolverConfig c = diversify_config(base, i);
    EXPECT_NE(c.random_seed, base.random_seed) << "worker " << i;
    seeds.push_back(c.random_seed);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
  // The four personalities cover distinct restart/phase/reduce policies,
  // and PB analysis is a diversification axis: worker 1 always runs
  // native cutting planes, worker 2 always runs clause weakening, so both
  // modes race regardless of the base profile.
  const SolverConfig w1 = diversify_config(base, 1);
  EXPECT_EQ(w1.restart_scheme, RestartScheme::Luby);
  EXPECT_EQ(w1.restart_base, 512);
  EXPECT_EQ(w1.pb_analysis, PbAnalysis::CuttingPlanes);
  const SolverConfig w2 = diversify_config(base, 2);
  EXPECT_EQ(w2.restart_scheme, RestartScheme::Geometric);
  EXPECT_DOUBLE_EQ(w2.restart_growth, 1.3);
  EXPECT_EQ(w2.pb_analysis, PbAnalysis::Weaken);
  EXPECT_FALSE(diversify_config(base, 3).phase_saving);
  EXPECT_TRUE(diversify_config(base, 3).default_phase);
  EXPECT_DOUBLE_EQ(diversify_config(base, 4).max_learnts_init, 512);
}

// ---- import admission control and degenerate imports ----

TEST(ClauseImport, ImporterReappliesGlueAndSizeCaps) {
  // The exporter's thresholds are not trusted: a foreign clause whose
  // learn-time glue exceeds the importer's share_max_lbd, or whose length
  // exceeds the 64-literal exchange cap, must be dropped at import time and
  // counted.
  Formula f;
  const Var first = f.new_vars(80);
  f.add_clause({Lit::positive(first), Lit::positive(first + 1)});

  ClauseExchange exchange(64);
  const std::vector<Lit> high_glue{Lit::positive(first),
                                   Lit::positive(first + 2),
                                   Lit::positive(first + 3)};
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, high_glue, /*lbd=*/9));
  const std::vector<Lit> acceptable{Lit::positive(first),
                                    Lit::positive(first + 4)};
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, acceptable, /*lbd=*/2));
  std::vector<Lit> oversized;
  for (int i = 0; i < 70; ++i) oversized.push_back(Lit::positive(first + i));
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, oversized, /*lbd=*/1));

  SolverConfig config;  // share_max_lbd = 2; exchange size cap 64
  CdclSolver solver(f, config);
  solver.set_sharing(&exchange, /*worker=*/0);
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.stats().imported_clauses, 1);
  EXPECT_EQ(solver.stats().rejected_imports, 2);
}

TEST(ClauseImport, AllFalseForeignClauseDerivesUnsat) {
  // A foreign clause that is already all-false under the importer's
  // level-0 assignment must set the solver UNSAT instead of being
  // silently attached as a falsified record.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_unit(Lit::negative(a));
  f.add_unit(Lit::negative(b));
  f.add_clause({Lit::positive(c), Lit::positive(a)});

  ClauseExchange exchange(16);
  const std::vector<Lit> foreign{Lit::positive(a), Lit::positive(b)};
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, foreign, /*lbd=*/2));

  CdclSolver solver(f);
  solver.set_sharing(&exchange, /*worker=*/0);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(ClauseImport, UnitConflictingForeignClauseDerivesUnsat) {
  // A foreign clause that simplifies to a unit whose propagation
  // conflicts at level 0 ends the search as UNSAT on import.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::negative(a), Lit::positive(b)});
  f.add_clause({Lit::negative(a), Lit::negative(b)});
  // Keep the instance satisfiable on its own (~a works).
  ClauseExchange exchange(16);
  const std::vector<Lit> foreign{Lit::positive(a)};
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, foreign, /*lbd=*/1));

  CdclSolver solver(f);
  solver.set_sharing(&exchange, /*worker=*/0);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

// ---- learned-PB sharing across workers ----

TEST(PbShare, ExchangeRoundTripFiltersOwnerAndBoundsCapacity) {
  ClauseExchange exchange(2);
  const std::vector<PbTerm> row{{2, Lit::positive(0)}, {1, Lit::positive(1)}};
  ASSERT_TRUE(exchange.export_pb(/*worker=*/1, row, /*degree=*/2, /*lbd=*/2));
  EXPECT_EQ(exchange.exported_pbs(), 1u);

  // The exporter never reimports its own row; another worker does, once.
  std::size_t cursor = 0;
  std::vector<SharedPb> got;
  exchange.import_pbs(/*worker=*/1, &cursor, &got);
  EXPECT_TRUE(got.empty());
  cursor = 0;
  exchange.import_pbs(/*worker=*/0, &cursor, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].degree, 2);
  EXPECT_EQ(got[0].lbd, 2);
  EXPECT_EQ(got[0].terms, row);
  got.clear();
  exchange.import_pbs(/*worker=*/0, &cursor, &got);  // cursor advanced
  EXPECT_TRUE(got.empty());

  // The PB lane is bounded by the same capacity as the clause lane.
  ASSERT_TRUE(exchange.export_pb(2, row, 2, 2));
  EXPECT_FALSE(exchange.export_pb(2, row, 2, 2));
  EXPECT_GT(exchange.dropped(), 0u);
}

TEST(PbShare, ImporterReappliesGlueAndSizeCaps) {
  Formula f;
  const Var first = f.new_vars(80);
  f.add_clause({Lit::positive(first), Lit::positive(first + 1)});

  ClauseExchange exchange(64);
  const std::vector<PbTerm> good{{2, Lit::positive(first)},
                                 {1, Lit::positive(first + 1)}};
  ASSERT_TRUE(exchange.export_pb(/*worker=*/1, good, /*degree=*/2, /*lbd=*/2));
  ASSERT_TRUE(exchange.export_pb(/*worker=*/1, good, /*degree=*/2, /*lbd=*/9));
  std::vector<PbTerm> oversized;
  for (int i = 0; i < 70; ++i) {
    oversized.push_back({2, Lit::positive(first + i)});
  }
  ASSERT_TRUE(
      exchange.export_pb(/*worker=*/1, oversized, /*degree=*/3, /*lbd=*/1));

  SolverConfig config;  // share_max_lbd = 2; exchange size cap 64
  CdclSolver solver(f, config);
  solver.set_sharing(&exchange, /*worker=*/0);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.stats().imported_pbs, 1);
  EXPECT_EQ(solver.stats().rejected_imports, 2);
  // The accepted row (2a + b >= 2) forces a (b alone cannot reach 2).
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(first)], LBool::True);
}

TEST(PbShare, ForeignRowFalsifiedAtRootDerivesUnsat) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_unit(Lit::negative(a));
  f.add_unit(Lit::negative(b));

  ClauseExchange exchange(16);
  const std::vector<PbTerm> foreign{{2, Lit::positive(a)},
                                    {1, Lit::positive(b)}};
  ASSERT_TRUE(exchange.export_pb(/*worker=*/1, foreign, /*degree=*/2,
                                 /*lbd=*/1));
  CdclSolver solver(f);
  solver.set_sharing(&exchange, /*worker=*/0);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(PbShare, CuttingPlanesWorkerExportsLearnedRows) {
  // A solo cutting-planes solver on a PB pigeonhole publishes qualifying
  // learned rows at learn time (exports do not depend on a race).
  Formula f;
  std::vector<std::vector<Var>> in(7);
  for (int p = 0; p < 7; ++p) {
    for (int h = 0; h < 6; ++h) {
      in[static_cast<std::size_t>(p)].push_back(f.new_var());
    }
  }
  for (int p = 0; p < 7; ++p) {
    Clause c;
    for (int h = 0; h < 6; ++h) {
      c.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_clause(std::move(c));
  }
  for (int h = 0; h < 6; ++h) {
    std::vector<Lit> col;
    for (int p = 0; p < 7; ++p) {
      col.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_at_most(col, 1);
  }
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.pb_analysis = PbAnalysis::CuttingPlanes;
  config.share_max_lbd = 6;
  ClauseExchange exchange(1 << 12);
  CdclSolver exporter(f, config);
  exporter.set_sharing(&exchange, /*worker=*/0);
  ASSERT_EQ(exporter.solve(), SolveResult::Unsat);
  ASSERT_GT(exporter.stats().learned_pbs, 0);
  EXPECT_GT(exporter.stats().exported_pbs, 0);
  EXPECT_EQ(static_cast<std::size_t>(exporter.stats().exported_pbs),
            exchange.exported_pbs());

  // A second worker drains those rows soundly: same Unsat answer, rows
  // counted as PB imports.
  CdclSolver importer(f, config);
  importer.set_sharing(&exchange, /*worker=*/1);
  EXPECT_EQ(importer.solve(), SolveResult::Unsat);
  EXPECT_GT(importer.stats().imported_pbs, 0);
}

TEST(PbShare, PortfolioRaceWithPbTrafficStaysSound) {
  // End-to-end: PB-heavy queen encodings raced at 4 threads (worker 1
  // always runs cutting planes, so the PB lane sees traffic when rows
  // qualify) never flip an answer, across interleavings.
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 4;
  config.share_max_lbd = 4;
  for (int round = 0; round < 3; ++round) {
    ParallelSolver unsat(queen5_formula(4), config);
    EXPECT_EQ(unsat.solve(), SolveResult::Unsat) << "round " << round;
    ParallelSolver sat(queen5_formula(5), config);
    EXPECT_EQ(sat.solve(), SolveResult::Sat) << "round " << round;
  }
}

TEST(ClauseImport, PortfolioRaceSurvivesDegenerateImports) {
  // End-to-end regression: racing workers with sharing enabled on
  // instances whose imports can simplify to units (myciel3 at its
  // chromatic boundary) must never flip an answer or trip the
  // disagreement check, across several interleavings.
  const Graph myciel = make_myciel_dimacs(3);
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 4;
  config.share_max_lbd = 4;  // admit enough traffic to exercise the path
  for (int round = 0; round < 3; ++round) {
    ParallelSolver unsat(
        encode_k_coloring(myciel, 3, SbpOptions::nu_sc()).formula, config);
    EXPECT_EQ(unsat.solve(), SolveResult::Unsat) << "round " << round;
    ParallelSolver sat(
        encode_k_coloring(myciel, 4, SbpOptions::nu_sc()).formula, config);
    EXPECT_EQ(sat.solve(), SolveResult::Sat) << "round " << round;
  }
}

// ---- fault-isolated workers ----

/// queen5 coloring CNF without SBPs: dozens of conflicts for the master
/// (34 UNSAT at k=4, 28 SAT at k=5), and every diversified personality is
/// guaranteed at least one conflict — so a throw-after-1-conflict fault
/// spec fires deterministically on whichever worker carries it. (The
/// SBP-laden encodings are useless here: nu+sc collapses these instances
/// to ~3 conflicts, below any useful fault threshold.)
Formula queen5_plain_formula(int k) {
  const Graph g = make_queen_graph(5, 5);
  return encode_k_coloring(g, k, SbpOptions::none()).formula;
}

TEST(PortfolioFaults, FaultyWorkerStillAnswers) {
  // Worker 1 is armed to die at its first conflict; the survivors must
  // still deliver the correct definitive answer, at every thread count
  // and in both scheduling modes. In deterministic mode every worker runs
  // to completion, so the fault ALWAYS fires (exactly one death); in race
  // mode a fast winner may early-exit worker 1 before its first conflict,
  // so the death toll is 0 or 1 — never more, and never a wrong answer.
  for (const int threads : {1, 2, 4}) {
    for (const bool deterministic : {false, true}) {
      SolverConfig config = profile_config(SolverKind::PbsII);
      config.portfolio_threads = threads;
      config.portfolio_deterministic = deterministic;
      config.fault_injection.worker = 1;
      config.fault_injection.throw_after_conflicts = 1;
      // threads == 1 has no worker 1: the spec is inert there.
      const int min_faults = (threads > 1 && deterministic) ? 1 : 0;
      const int max_faults = threads > 1 ? 1 : 0;

      ParallelSolver sat(queen5_plain_formula(5), config);
      EXPECT_EQ(sat.solve(), SolveResult::Sat)
          << threads << " threads, deterministic=" << deterministic;
      EXPECT_GE(sat.last_fault_count(), min_faults);
      EXPECT_LE(sat.last_fault_count(), max_faults);

      ParallelSolver unsat(queen5_plain_formula(4), config);
      EXPECT_EQ(unsat.solve(), SolveResult::Unsat)
          << threads << " threads, deterministic=" << deterministic;
      EXPECT_GE(unsat.last_fault_count(), min_faults);
      EXPECT_LE(unsat.last_fault_count(), max_faults);
    }
  }
}

TEST(PortfolioFaults, MasterFaultRecoversAndNextSolveIsHealthy) {
  // Worker 0 (the master itself) dies; a surviving clone answers, the
  // master is rebuilt from it, and — fault specs being one-shot — a
  // second solve on the same engine runs fault-free. Deterministic mode
  // turns early exit off, so the master always reaches its first conflict
  // and the fault fires; in a race the clone could answer first.
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 2;
  config.portfolio_deterministic = true;
  config.fault_injection.worker = 0;
  config.fault_injection.throw_after_conflicts = 1;

  ParallelSolver solver(queen5_plain_formula(4), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_EQ(solver.last_fault_count(), 1);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_EQ(solver.last_fault_count(), 0);
}

TEST(PortfolioFaults, AllWorkersDeadRethrows) {
  // worker < 0 arms the fault on every worker: with nobody left to
  // answer, the portfolio must surface the failure, not fabricate a
  // result.
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 2;
  config.fault_injection.worker = -1;
  config.fault_injection.throw_after_conflicts = 1;

  ParallelSolver solver(queen5_plain_formula(4), config);
  EXPECT_THROW(solver.solve(), std::runtime_error);
}

TEST(PortfolioFaults, PoisonedImportIsolatedToItsWorker) {
  // A worker whose import path throws (poisoned exchange payload) dies at
  // its first drain; the exchange keeps serving the survivors and the
  // race still concludes correctly. A worker that starts after the race
  // is won stops at its entry poll, before any drain, so the instances
  // keep the master busy for about a thousand conflicts or more (queen7
  // at k=7 is SAT, myciel4 at k=4 UNSAT, both without SBPs): far longer
  // than it takes worker 1 to start.
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 2;
  config.fault_injection.worker = 1;
  config.fault_injection.poison_import = true;

  const Formula sat_formula =
      encode_k_coloring(make_queen_graph(7, 7), 7, SbpOptions::none())
          .formula;
  ParallelSolver sat(sat_formula, config);
  EXPECT_EQ(sat.solve(), SolveResult::Sat);
  EXPECT_EQ(sat.last_fault_count(), 1);

  const Formula unsat_formula =
      encode_k_coloring(make_myciel_dimacs(4), 4, SbpOptions::none())
          .formula;
  ParallelSolver unsat(unsat_formula, config);
  EXPECT_EQ(unsat.solve(), SolveResult::Unsat);
  EXPECT_EQ(unsat.last_fault_count(), 1);
}

TEST(PortfolioFaults, SingleThreadFaultPropagates) {
  // With one worker there is nobody to hide behind: the fault reaches
  // the caller (worker 0 == the sequential master).
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 1;
  config.fault_injection.worker = 0;
  config.fault_injection.throw_after_conflicts = 1;

  ParallelSolver solver(queen5_plain_formula(4), config);
  EXPECT_THROW(solver.solve(), std::runtime_error);
}

TEST(PortfolioFaults, PresetInterruptReturnsUnknownWithTrip) {
  // An interrupt raised before the race starts preempts every worker:
  // the portfolio reports Unknown and surfaces the Interrupt trip.
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 2;
  // Hard enough that the first poll-cadence check fires long before any
  // worker could finish, small enough that the re-armed solve is quick.
  const Formula f = pigeonhole_formula(8, 7);
  ParallelSolver solver(f, config);
  SolveBudget budget;
  budget.interrupt();
  EXPECT_EQ(solver.solve(budget), SolveResult::Unknown);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::Interrupt);
  // Re-armed, the same engine solves to completion.
  budget.clear_interrupt();
  EXPECT_EQ(solver.solve(budget), SolveResult::Unsat);
  EXPECT_EQ(solver.last_trip(), BudgetTrip::None);
}

// ---- differential: both schedules vs the sequential engine ----

/// Random 3-CNF near the satisfiability threshold plus a few weighted
/// at-most rows, so both answers and both propagation kinds show up.
Formula random_cnf_pb(Rng& rng, int vars) {
  Formula f;
  f.new_vars(vars);
  const auto random_lit = [&] {
    const Var v = static_cast<Var>(rng.below(static_cast<std::uint64_t>(vars)));
    return rng.chance(0.5) ? Lit::positive(v) : Lit::negative(v);
  };
  const int clauses = vars * 37 / 10;
  for (int c = 0; c < clauses; ++c) {
    f.add_clause({random_lit(), random_lit(), random_lit()});
  }
  for (int row = 0; row < 3; ++row) {
    std::vector<PbTerm> terms;
    std::int64_t sum = 0;
    for (int t = 0; t < 8; ++t) {
      terms.push_back({rng.range(1, 4), random_lit()});
      sum += terms.back().coeff;
    }
    f.add_pb(PbConstraint::at_most(std::move(terms), sum * 2 / 3));
  }
  return f;
}

TEST(ParallelDifferential, SchedulesAgreeWithSequentialUnderAssumptions) {
  Rng rng(0xD1FFu);
  int sat = 0;
  int unsat_with_core = 0;
  int cube_runs = 0;
  for (int round = 0; round < 24; ++round) {
    const Formula f = random_cnf_pb(rng, 50);
    std::vector<Lit> assumptions;
    const int num_assumptions = static_cast<int>(rng.below(6));
    for (int a = 0; a < num_assumptions; ++a) {
      const Var v = static_cast<Var>(a * 7 + static_cast<int>(rng.below(7)));
      assumptions.push_back(rng.chance(0.5) ? Lit::positive(v)
                                            : Lit::negative(v));
    }
    const SolverConfig base = profile_config(SolverKind::PbsII);
    CdclSolver reference(f, base);
    const SolveResult expected = reference.solve({}, assumptions);
    ASSERT_NE(expected, SolveResult::Unknown);

    for (const int depth : {0, 1, 2, 3}) {
      for (const int workers : {1, 2, 4, 5}) {
        for (const bool deterministic : {false, true}) {
          SolverConfig config = base;
          config.cube_depth = depth;
          config.portfolio_threads = workers;
          config.portfolio_deterministic = deterministic;
          config.cube_warmup_conflicts = 2;  // reach the cube phase
          config.cube_conflict_slice = 8;    // and split stuck cubes
          const std::string where =
              "round " + std::to_string(round) + ", depth " +
              std::to_string(depth) + ", " + std::to_string(workers) +
              " workers, deterministic=" + std::to_string(deterministic);
          ParallelSolver solver(f, config);
          const SolveResult got = solver.solve({}, assumptions);
          ASSERT_EQ(got, expected) << where;
          cube_runs += solver.stats().cubes_dealt > 0;
          if (got == SolveResult::Sat) {
            ++sat;
            EXPECT_TRUE(f.satisfied_by(solver.model())) << where;
            for (const Lit l : assumptions) {
              EXPECT_EQ(lit_value(solver.model()[static_cast<std::size_t>(
                                      l.var())],
                                  l.negated()),
                        LBool::True)
                  << where;
            }
            continue;
          }
          const std::vector<Lit> core(solver.last_core().begin(),
                                      solver.last_core().end());
          unsat_with_core += !core.empty();
          for (const Lit l : core) {
            EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                      assumptions.end())
                << where << ": core literal is not an assumption";
          }
          // The core alone must refute, re-solved from scratch.
          CdclSolver check(f, base);
          EXPECT_EQ(check.solve({}, core), SolveResult::Unsat) << where;
        }
      }
    }
  }
  // The draw must exercise every outcome the checks above cover.
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat_with_core, 0);
  EXPECT_GT(cube_runs, 0);
}

}  // namespace
}  // namespace symcolor
