// Incremental solving tests: chronological backtracking and repeated
// assumption solves on one persistent engine. Covers chrono on-vs-off
// answer agreement across the engine stack (plain / portfolio /
// cube-and-conquer at 1, 2 and 4 threads) on queen/myciel/random
// instances, assumption ladders, last_core() soundness on a ladder,
// clone()/add_clause()/reconfigure() after an assumption solve, and the
// exit contract: every solve() returns at decision level 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "sat/parallel_solver.h"
#include "util/budget.h"

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

/// Chronological backtracking on, with the threshold cranked down to 1 so
/// the tiny test instances actually take chronological backtracks (the
/// production default of 100 would never fire at these depths); off = 0.
SolverConfig inc_config(bool on, int threads = 1, int cube_depth = 0) {
  SolverConfig c = profile_config(SolverKind::PbsII);
  c.portfolio_threads = threads;
  c.cube_depth = cube_depth;
  c.chrono_threshold = on ? 1 : 0;
  return c;
}

/// Pigeonhole: `pigeons` into `holes`, at most one pigeon per hole.
/// Unsat, and exponentially hard for resolution, when pigeons > holes.
Formula pigeonhole(int pigeons, int holes) {
  Formula f;
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (auto& row : in) {
    for (int h = 0; h < holes; ++h) row.push_back(f.new_var());
  }
  for (const auto& row : in) {
    Clause c;
    for (const Var v : row) c.push_back(Lit::positive(v));
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

// ---- chrono on-vs-off agreement across the engine stack ----

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
    auto off =
        make_solver_engine(tc.formula, inc_config(false, threads, cube_depth));
    auto on =
        make_solver_engine(tc.formula, inc_config(true, threads, cube_depth));
    const SolveResult r_off = off->solve();
    const SolveResult r_on = on->solve();
    EXPECT_EQ(r_off, r_on) << tc.name << " threads=" << threads
                           << " cube_depth=" << cube_depth;
    if (tc.expected != SolveResult::Unknown) {
      EXPECT_EQ(r_on, tc.expected) << tc.name;
    }
    if (r_on == SolveResult::Sat) {
      EXPECT_TRUE(tc.formula.satisfied_by(on->model()))
          << tc.name << ": model with incremental features on is improper";
    }
  }
}

TEST(IncrementalAgreement, PlainOneThread) { check_agreement(1, 0); }
TEST(IncrementalAgreement, PortfolioTwoThreads) { check_agreement(2, 0); }
TEST(IncrementalAgreement, PortfolioFourThreads) { check_agreement(4, 0); }
TEST(IncrementalAgreement, CubeDepthTwoTwoThreads) { check_agreement(2, 2); }
TEST(IncrementalAgreement, CubeDepthTwoFourThreads) { check_agreement(4, 2); }

// Chronological backtracking must actually FIRE on the instances the
// matrix runs, or the agreement above proves nothing about its code path.
TEST(IncrementalAgreement, ChronoActuallyFiresOnQueen) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver solver(enc.formula, inc_config(true));
  std::vector<Lit> assume;
  for (int k = 6; k >= 4; --k) {  // chi(queen5) = 5: SAT, SAT, UNSAT ladder
    assume.push_back(Lit::negative(enc.y(k)));
    (void)solver.solve({}, assume);
  }
  EXPECT_GT(solver.stats().chrono_backtracks, 0);
  EXPECT_GT(solver.stats().saved_propagations, 0);
}

// ---- persistent-engine assumption ladders ----

// The optimizer-style ladder on one persistent engine must give the same
// verdict at every rung as a fresh solver with chrono off.
TEST(AssumptionSolve, LadderMatchesFreshSolver) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver persistent(enc.formula, inc_config(true));
  std::vector<Lit> assume;
  for (int k = 6; k >= 4; --k) {
    assume.push_back(Lit::negative(enc.y(k)));
    const SolveResult incremental = persistent.solve({}, assume);
    CdclSolver fresh(enc.formula, inc_config(false));
    EXPECT_EQ(incremental, fresh.solve({}, assume)) << "rung k=" << k;
    if (incremental == SolveResult::Sat) {
      EXPECT_TRUE(enc.formula.satisfied_by(persistent.model()));
    }
  }
}

// Re-solving the SAME assumptions must answer the same way; switching to
// a DIFFERENT prefix must not leak implications of the previous one.
TEST(AssumptionSolve, RepeatAndSwitchPrefixes) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_clause({Lit::negative(a), Lit::positive(b)});   // a -> b
  f.add_clause({Lit::negative(c), Lit::negative(b)});   // c -> ~b
  CdclSolver solver(f, inc_config(true));
  const std::vector<Lit> assume_a = {Lit::positive(a)};
  ASSERT_EQ(solver.solve({}, assume_a), SolveResult::Sat);
  EXPECT_EQ(solver.model()[b], LBool::True);
  ASSERT_EQ(solver.solve({}, assume_a), SolveResult::Sat);
  // Different first assumption: nothing of the [a] prefix may survive.
  const std::vector<Lit> assume_c = {Lit::positive(c)};
  ASSERT_EQ(solver.solve({}, assume_c), SolveResult::Sat);
  EXPECT_EQ(solver.model()[b], LBool::False);
  // And the contradictory pair is still detected.
  const std::vector<Lit> both = {Lit::positive(c), Lit::positive(a)};
  EXPECT_EQ(solver.solve({}, both), SolveResult::Unsat);
}

// ---- last_core() soundness on a ladder ----

TEST(AssumptionSolve, CoreSoundAfterSharedPrefix) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver solver(enc.formula, inc_config(true));
  // SAT rungs first: the UNSAT rung extends the prefix they solved under.
  std::vector<Lit> assume = {Lit::negative(enc.y(6))};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  assume.push_back(Lit::negative(enc.y(5)));
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  assume.push_back(Lit::negative(enc.y(4)));
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Unsat);
  ASSERT_FALSE(solver.last_core().empty());
  // Every core literal names one of the caller's assumptions...
  std::vector<Lit> core(solver.last_core().begin(), solver.last_core().end());
  for (const Lit l : core) {
    EXPECT_TRUE(std::find(assume.begin(), assume.end(), l) != assume.end())
        << "core literal outside the caller's assumption vector";
  }
  // ...and the core alone is genuinely contradictory with the formula:
  // asserting it as units on a FRESH solver must be Unsat.
  CdclSolver check(enc.formula, inc_config(false));
  EXPECT_EQ(check.solve({}, core), SolveResult::Unsat);
}

// ---- clone / mutation after an assumption solve ----

TEST(AssumptionSolve, CloneAfterAssumptionSolveIsEquivalent) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver solver(enc.formula, inc_config(true));
  const std::vector<Lit> assume = {Lit::negative(enc.y(6)),
                                   Lit::negative(enc.y(5))};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  // The clone carries learned state but no assumption: it must answer
  // every query like a fresh engine would.
  std::unique_ptr<SolverEngine> clone = solver.clone();
  ASSERT_EQ(clone->solve(), SolveResult::Sat);
  EXPECT_TRUE(enc.formula.satisfied_by(clone->model()));
  const std::vector<Lit> unsat_ladder = {Lit::negative(enc.y(6)),
                                         Lit::negative(enc.y(5)),
                                         Lit::negative(enc.y(4))};
  EXPECT_EQ(clone->solve({}, unsat_ladder), SolveResult::Unsat);
  // The original keeps working after the clone.
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  EXPECT_TRUE(enc.formula.satisfied_by(solver.model()));
}

TEST(AssumptionSolve, AddClauseAfterAssumptionSolve) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  CdclSolver solver(f, inc_config(true));
  const std::vector<Lit> assume = {Lit::positive(a)};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  // The new clause lands on the root assignment and makes that same
  // assumption infeasible.
  ASSERT_TRUE(solver.add_clause({Lit::negative(a)}));
  EXPECT_EQ(solver.solve({}, assume), SolveResult::Unsat);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[a], LBool::False);
  EXPECT_EQ(solver.model()[b], LBool::True);
}

TEST(AssumptionSolve, ReconfigureAfterAssumptionSolve) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  // Solve under an assumption, then flip chrono off via reconfigure():
  // subsequent solves run the classic path and still agree.
  CdclSolver ladder(enc.formula, inc_config(true));
  const std::vector<Lit> assume = {Lit::negative(enc.y(6))};
  ASSERT_EQ(ladder.solve({}, assume), SolveResult::Sat);
  ladder.reconfigure(inc_config(false));
  ASSERT_EQ(ladder.solve({}, assume), SolveResult::Sat);
  EXPECT_TRUE(enc.formula.satisfied_by(ladder.model()));
}

// ---- the exit contract: every solve() returns at level 0 ----

TEST(AssumptionSolve, EveryExitKindReturnsAtLevelZero) {
  // Sat under assumptions.
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver queen(enc.formula, inc_config(true));
  std::vector<Lit> assume = {Lit::negative(enc.y(6)),
                             Lit::negative(enc.y(5))};
  ASSERT_EQ(queen.solve({}, assume), SolveResult::Sat);
  EXPECT_EQ(queen.decision_level(), 0) << "Sat exit";

  // Unsat with a nonempty failed-assumption core.
  assume.push_back(Lit::negative(enc.y(4)));
  ASSERT_EQ(queen.solve({}, assume), SolveResult::Unsat);
  EXPECT_FALSE(queen.last_core().empty());
  EXPECT_EQ(queen.decision_level(), 0) << "Unsat-with-core exit";

  // Unknown from a conflict cap, mid-search under an assumption.
  const Formula php = pigeonhole(10, 9);
  const std::vector<Lit> first_pigeon_in_hole0 = {Lit::positive(0)};
  CdclSolver capped(php, inc_config(true));
  ASSERT_EQ(capped.solve(SolveBudget(0.0, 50), first_pigeon_in_hole0),
            SolveResult::Unknown);
  EXPECT_EQ(capped.last_trip(), BudgetTrip::Conflicts);
  EXPECT_EQ(capped.decision_level(), 0) << "conflict-cap exit";

  // Unknown from interrupt(), raised from another thread mid-search (the
  // 60 s deadline is only a backstop).
  CdclSolver interrupted(php, inc_config(true));
  const SolveBudget budget(60.0);
  std::thread interrupter([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    budget.interrupt();
  });
  const SolveResult r = interrupted.solve(budget, first_pigeon_in_hole0);
  interrupter.join();
  ASSERT_EQ(r, SolveResult::Unknown);
  EXPECT_EQ(interrupted.last_trip(), BudgetTrip::Interrupt);
  EXPECT_GT(interrupted.stats().conflicts, 0) << "interrupt hit before search";
  EXPECT_EQ(interrupted.decision_level(), 0) << "interrupt exit";
}

}  // namespace
}  // namespace symcolor
