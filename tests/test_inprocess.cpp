// Inprocessing tests: root-level reduction helpers, equivalent-literal
// substitution (SCC collapse, model reconstruction, core translation),
// on-vs-off answer agreement across the engine stack (plain / portfolio /
// cube-and-conquer at 1, 2 and 4 threads), mid-solve clone equivalence,
// budget-slice trips leaving a consistent database, engine-cache
// admission warm starts, and the drain_imports remap regression (clause
// and PB lanes) for imports naming substituted-away variables.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cnf/formula.h"
#include "cnf/pb_constraint.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "sat/inprocess.h"
#include "sat/parallel_solver.h"
#include "service/engine_cache.h"

namespace symcolor {
namespace {

Formula queen5_plain(int k) {
  return encode_k_coloring(make_queen_graph(5, 5), k, SbpOptions::none())
      .formula;
}

Formula myciel3_plain(int k) {
  return encode_k_coloring(make_myciel_dimacs(3), k, SbpOptions::none())
      .formula;
}

Formula random_plain(int k, std::uint64_t seed) {
  return encode_k_coloring(make_random_gnm(12, 30, seed), k,
                           SbpOptions::none())
      .formula;
}

/// Config with the inprocess cadence cranked down so the test instances
/// (tens of conflicts) cross a restart-boundary round several times.
SolverConfig ip_config(InprocessMode mode, int threads = 1,
                       int cube_depth = 0) {
  SolverConfig c = profile_config(SolverKind::PbsII);
  c.portfolio_threads = threads;
  c.cube_depth = cube_depth;
  c.inprocess = mode;
  c.inprocess_interval_base = 10;
  c.inprocess_interval_inc = 0;
  // The inprocess hook sits at restart boundaries; shrink the first
  // restart interval so the tiny test instances actually reach one.
  c.restart_base = 8;
  return c;
}

/// Three equivalence classes chained onto var 0 plus a satisfiable side
/// constraint: x0 <-> x1 <-> x2, plus (x0 v x3). Full inprocessing must
/// collapse vars 1 and 2 onto 0.
Formula chained_equivalences() {
  Formula f;
  const Var x0 = f.new_var();
  const Var x1 = f.new_var();
  const Var x2 = f.new_var();
  const Var x3 = f.new_var();
  f.add_clause({Lit::negative(x0), Lit::positive(x1)});
  f.add_clause({Lit::negative(x1), Lit::positive(x0)});
  f.add_clause({Lit::negative(x1), Lit::positive(x2)});
  f.add_clause({Lit::negative(x2), Lit::positive(x1)});
  f.add_clause({Lit::positive(x0), Lit::positive(x3)});
  return f;
}

// ---- root-level reduction helpers (shared with cnf/simplify) ----

TEST(ReduceClauseAtRoot, UnassignedClauseIsUnchanged) {
  std::vector<LBool> values(3, LBool::Undef);
  const Clause c = {Lit::positive(0), Lit::negative(1), Lit::positive(2)};
  Clause reduced;
  EXPECT_EQ(reduce_clause_at_root(c, values, &reduced),
            RootClauseStatus::Unchanged);
}

TEST(ReduceClauseAtRoot, SatisfiedShortenedUnitEmpty) {
  std::vector<LBool> values(4, LBool::Undef);
  values[0] = LBool::True;
  values[1] = LBool::False;
  Clause reduced;
  EXPECT_EQ(reduce_clause_at_root(
                Clause{Lit::positive(0), Lit::positive(2)}, values, &reduced),
            RootClauseStatus::Satisfied);
  EXPECT_EQ(reduce_clause_at_root(
                Clause{Lit::positive(1), Lit::positive(2), Lit::positive(3)},
                values, &reduced),
            RootClauseStatus::Shortened);
  EXPECT_EQ(reduced, (Clause{Lit::positive(2), Lit::positive(3)}));
  EXPECT_EQ(reduce_clause_at_root(
                Clause{Lit::positive(1), Lit::positive(2)}, values, &reduced),
            RootClauseStatus::Unit);
  EXPECT_EQ(reduced, (Clause{Lit::positive(2)}));
  EXPECT_EQ(reduce_clause_at_root(Clause{Lit::positive(1), Lit::negative(0)},
                                  values, &reduced),
            RootClauseStatus::Empty);
}

TEST(ReducePbAtRoot, FoldsAssignmentsAndForcesHighCoeffs) {
  // 3a + 2b + 1c >= 4 with a=True: residual 2b + 1c >= 1 (a clause).
  std::vector<LBool> values(3, LBool::Undef);
  values[0] = LBool::True;
  const std::vector<PbTerm> terms = {{3, Lit::positive(0)},
                                     {2, Lit::positive(1)},
                                     {1, Lit::positive(2)}};
  const RootPbReduction r = reduce_pb_at_root(terms, 4, values);
  EXPECT_EQ(r.status, RootPbStatus::Clause);
  // Same row with nothing assigned: bound 4 of coeff-sum 6 forces a
  // (coeff 3 > 6 - 4) but not b.
  std::vector<LBool> open(3, LBool::Undef);
  const RootPbReduction o = reduce_pb_at_root(terms, 4, open);
  EXPECT_EQ(o.status, RootPbStatus::Open);
  ASSERT_EQ(o.forced.size(), 1u);
  EXPECT_EQ(o.forced[0], Lit::positive(0));
}

TEST(ReducePbAtRoot, SatisfiedAndContradiction) {
  std::vector<LBool> values(2, LBool::Undef);
  values[0] = LBool::True;
  const std::vector<PbTerm> terms = {{2, Lit::positive(0)},
                                     {1, Lit::positive(1)}};
  EXPECT_EQ(reduce_pb_at_root(terms, 2, values).status,
            RootPbStatus::Satisfied);
  values[0] = LBool::False;
  values[1] = LBool::False;
  EXPECT_EQ(reduce_pb_at_root(terms, 2, values).status,
            RootPbStatus::Contradiction);
}

// ---- equivalent-literal substitution ----

TEST(Inprocess, SubstitutionCollapsesSccAndModelExtends) {
  const Formula f = chained_equivalences();
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  solver.inprocess();
  EXPECT_GE(solver.replaced_vars(), 2);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  // The model must cover the ORIGINAL formula, eliminated vars included.
  EXPECT_TRUE(f.satisfied_by(solver.model()));
  EXPECT_EQ(solver.model()[0], solver.model()[1]);
  EXPECT_EQ(solver.model()[1], solver.model()[2]);
}

TEST(Inprocess, CoreNamesCallerLiteralsAfterSubstitution) {
  // x0 <-> x1, plus (~x0 v ~x2): assuming [x1, x2] is contradictory, and
  // the reported core must name the CALLER's assumption literals even
  // though x1 was substituted away internally.
  Formula f;
  const Var x0 = f.new_var();
  const Var x1 = f.new_var();
  const Var x2 = f.new_var();
  f.add_clause({Lit::negative(x0), Lit::positive(x1)});
  f.add_clause({Lit::negative(x1), Lit::positive(x0)});
  f.add_clause({Lit::negative(x0), Lit::negative(x2)});
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  solver.inprocess();
  ASSERT_GE(solver.replaced_vars(), 1);
  const std::vector<Lit> assumptions = {Lit::positive(x1), Lit::positive(x2)};
  ASSERT_EQ(solver.solve({}, assumptions), SolveResult::Unsat);
  ASSERT_FALSE(solver.last_core().empty());
  for (const Lit l : solver.last_core()) {
    EXPECT_TRUE(l == Lit::positive(x1) || l == Lit::positive(x2))
        << "core literal outside the caller's assumption alphabet";
  }
  // The engine stays usable and consistent afterwards.
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
}

TEST(Inprocess, MidSolveCloneCarriesSubstitutionState) {
  const Formula f = queen5_plain(5);
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  // Push the solver past a few inprocess rounds, then stop mid-search.
  const SolveBudget budget(0.0, 25, 0);
  (void)solver.solve(budget);
  solver.inprocess();
  std::unique_ptr<SolverEngine> clone = solver.clone();
  ASSERT_EQ(clone->solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(clone->model()));
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
}

TEST(Inprocess, BudgetSliceTripLeavesConsistentDatabase) {
  const Formula f = queen5_plain(4);
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  // A propagation slice far too small to finish a round: the round must
  // degrade gracefully, leaving a database that still answers correctly.
  const SolveBudget slice(0.0, 0, 8);
  solver.inprocess(slice);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  CdclSolver sat_solver(queen5_plain(5), ip_config(InprocessMode::Full));
  const SolveBudget sat_slice(0.0, 0, 8);
  sat_solver.inprocess(sat_slice);
  ASSERT_EQ(sat_solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(queen5_plain(5).satisfied_by(sat_solver.model()));
}

// ---- on-vs-off agreement across the engine stack ----

struct AgreementCase {
  const char* name;
  Formula formula;
  SolveResult expected;
};

std::vector<AgreementCase> agreement_suite() {
  std::vector<AgreementCase> suite;
  suite.push_back({"queen5_k4", queen5_plain(4), SolveResult::Unsat});
  suite.push_back({"queen5_k5", queen5_plain(5), SolveResult::Sat});
  suite.push_back({"myciel3_k3", myciel3_plain(3), SolveResult::Unsat});
  suite.push_back({"myciel3_k4", myciel3_plain(4), SolveResult::Sat});
  suite.push_back({"random_k3", random_plain(3, 7), SolveResult::Unknown});
  return suite;
}

void check_agreement(int threads, int cube_depth) {
  for (AgreementCase& tc : agreement_suite()) {
    auto off = make_solver_engine(
        tc.formula, ip_config(InprocessMode::Off, threads, cube_depth));
    auto on = make_solver_engine(
        tc.formula, ip_config(InprocessMode::Full, threads, cube_depth));
    const SolveResult r_off = off->solve();
    const SolveResult r_on = on->solve();
    EXPECT_EQ(r_off, r_on) << tc.name << " threads=" << threads
                           << " cube_depth=" << cube_depth;
    if (tc.expected != SolveResult::Unknown) {
      EXPECT_EQ(r_on, tc.expected) << tc.name;
    }
    if (r_on == SolveResult::Sat) {
      EXPECT_TRUE(tc.formula.satisfied_by(on->model()))
          << tc.name << ": inprocessed model fails the original formula";
    }
  }
}

TEST(InprocessAgreement, PlainOneThread) { check_agreement(1, 0); }
TEST(InprocessAgreement, PortfolioTwoThreads) { check_agreement(2, 0); }
TEST(InprocessAgreement, PortfolioFourThreads) { check_agreement(4, 0); }
TEST(InprocessAgreement, CubeDepthTwoTwoThreads) { check_agreement(2, 2); }
TEST(InprocessAgreement, CubeDepthTwoFourThreads) { check_agreement(4, 2); }

TEST(InprocessAgreement, RoundsActuallyFireOnQueen) {
  auto engine = make_solver_engine(queen5_plain(4),
                                   ip_config(InprocessMode::Full, 1, 0));
  ASSERT_EQ(engine->solve(), SolveResult::Unsat);
  const SolverStats& stats = engine->aggregated_stats();
  EXPECT_GT(stats.inprocess_rounds, 0);
  // The rounds must do real work on the queen instance, not just spin.
  EXPECT_GT(stats.vivified_clauses + stats.viv_removed_clauses +
                stats.replaced_vars,
            0);
}

// ---- engine-cache admission warm start ----

TEST(Inprocess, EngineCacheAdmissionRoundWarmsClones) {
  EngineCache cache(4);
  const Formula f = chained_equivalences();
  const SolverConfig config = ip_config(InprocessMode::Full);
  std::unique_ptr<SolverEngine> first = cache.acquire("k", f, config);
  // The admission round ran on the resident master BEFORE the first
  // clone, so the clone already carries the substitution state.
  EXPECT_GE(first->stats().replaced_vars, 2);
  ASSERT_EQ(first->solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(first->model()));
  std::unique_ptr<SolverEngine> second = cache.acquire("k", f, config);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_GE(second->stats().replaced_vars, 2);
  ASSERT_EQ(second->solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(second->model()));
}

// ---- drain_imports remap regression (satellite bugfix) ----

TEST(Inprocess, ImportedClauseNamingSubstitutedVarIsRemapped) {
  // x0 <-> x1 with x1 substituted away; a foreign worker then shares the
  // unit (~x1). Without the import-side remap the unit would land on the
  // eliminated variable and the assumption [x0] would wrongly succeed.
  Formula f;
  const Var x0 = f.new_var();
  const Var x1 = f.new_var();
  const Var x2 = f.new_var();
  f.add_clause({Lit::negative(x0), Lit::positive(x1)});
  f.add_clause({Lit::negative(x1), Lit::positive(x0)});
  f.add_clause({Lit::positive(x0), Lit::positive(x2)});
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  solver.inprocess();
  ASSERT_GE(solver.replaced_vars(), 1);

  ClauseExchange exchange(64);
  const std::vector<Lit> shared = {Lit::negative(x1)};
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, shared, /*lbd=*/1));
  solver.set_sharing(&exchange, /*worker_id=*/0);
  const std::vector<Lit> assumptions = {Lit::positive(x0)};
  EXPECT_EQ(solver.solve({}, assumptions), SolveResult::Unsat);
  // And without the conflicting assumption the instance stays Sat with a
  // model honouring both the import and the equivalence.
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
  EXPECT_EQ(solver.model()[x0], LBool::False);
  EXPECT_EQ(solver.model()[x1], LBool::False);
}

TEST(Inprocess, ImportedPbNamingSubstitutedVarIsRemapped) {
  // Same setup through the PB lane: the shared row (~x1) + (~x2) >= 2
  // forces both literals; after the x1 -> x0 remap that contradicts the
  // assumption [x0].
  Formula f;
  const Var x0 = f.new_var();
  const Var x1 = f.new_var();
  const Var x2 = f.new_var();
  const Var x3 = f.new_var();
  f.add_clause({Lit::negative(x0), Lit::positive(x1)});
  f.add_clause({Lit::negative(x1), Lit::positive(x0)});
  f.add_clause({Lit::positive(x3), Lit::positive(x0)});
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  solver.inprocess();
  ASSERT_GE(solver.replaced_vars(), 1);

  ClauseExchange exchange(64);
  const std::vector<PbTerm> row = {{1, Lit::negative(x1)},
                                   {1, Lit::negative(x2)}};
  ASSERT_TRUE(exchange.export_pb(/*worker=*/1, row, /*degree=*/2, /*lbd=*/1));
  solver.set_sharing(&exchange, /*worker_id=*/0);
  const std::vector<Lit> assumptions = {Lit::positive(x0)};
  EXPECT_EQ(solver.solve({}, assumptions), SolveResult::Unsat);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
  EXPECT_EQ(solver.model()[x1], LBool::False);
  EXPECT_EQ(solver.model()[x2], LBool::False);
}

TEST(Inprocess, ImportMergeTautologyIsRejected) {
  // x0 <-> x1 negatively: (~x0 v ~x1), (x0 v x1) makes x1 == ~x0, so the
  // imported clause (x0 v x1) maps to the tautology (x0 v ~x0) and must
  // be dropped, not corrupt the database.
  Formula f;
  const Var x0 = f.new_var();
  const Var x1 = f.new_var();
  const Var x2 = f.new_var();
  f.add_clause({Lit::negative(x0), Lit::negative(x1)});
  f.add_clause({Lit::positive(x0), Lit::positive(x1)});
  f.add_clause({Lit::positive(x2), Lit::positive(x0)});
  CdclSolver solver(f, ip_config(InprocessMode::Full));
  solver.inprocess();
  ASSERT_GE(solver.replaced_vars(), 1);

  ClauseExchange exchange(64);
  const std::vector<Lit> shared = {Lit::positive(x0), Lit::positive(x1)};
  ASSERT_TRUE(exchange.export_clause(/*worker=*/1, shared, /*lbd=*/1));
  solver.set_sharing(&exchange, /*worker_id=*/0);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
  EXPECT_NE(solver.model()[x0], solver.model()[x1]);
}

}  // namespace
}  // namespace symcolor
