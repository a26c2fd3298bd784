// Incremental hot-path tests: chronological backtracking and
// assumption-trail reuse. Covers on-vs-off answer agreement across the
// engine stack (plain / portfolio / cube-and-conquer at 1, 2 and 4
// threads) on queen/myciel/random instances, repeated assumption-ladder
// solves on one persistent engine, last_core() soundness when the
// refuting solve reused a retained trail prefix, clone-after-reused-trail
// equivalence, the inprocess-Full substitution interaction (the public
// inprocess() hook must lazily discard the retained prefix), and
// add_clause()/reconfigure() after a retained trail.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "sat/parallel_solver.h"

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

/// Incremental features fully on, with the chrono threshold cranked down
/// to 1 so the tiny test instances actually take chronological backtracks
/// (the production default of 100 would never fire at these depths).
SolverConfig inc_config(bool on, int threads = 1, int cube_depth = 0) {
  SolverConfig c = profile_config(SolverKind::PbsII);
  c.portfolio_threads = threads;
  c.cube_depth = cube_depth;
  c.chrono_threshold = on ? 1 : 0;
  c.reuse_trail = on;
  return c;
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

// The features must actually FIRE on the instances the matrix runs, or
// the agreement above proves nothing about the new code paths.
TEST(IncrementalAgreement, FeaturesActuallyFireOnQueen) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver solver(enc.formula, inc_config(true));
  std::vector<Lit> assume;
  for (int k = 6; k >= 4; --k) {  // chi(queen5) = 5: SAT, SAT, UNSAT ladder
    assume.push_back(Lit::negative(enc.y(k)));
    (void)solver.solve({}, assume);
  }
  EXPECT_GT(solver.stats().chrono_backtracks, 0);
  EXPECT_GT(solver.stats().reused_trail_literals, 0);
  EXPECT_GT(solver.stats().saved_propagations, 0);
}

// ---- persistent-engine assumption ladders ----

// The optimizer-style ladder on one persistent engine must give the same
// verdict at every rung as a fresh solver with the features off.
TEST(TrailReuse, LadderMatchesFreshSolver) {
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

// Re-solving the SAME assumptions must reuse the retained prefix and
// still answer correctly; switching to a DIFFERENT prefix must not leak
// stale implications from the previous one.
TEST(TrailReuse, RepeatAndSwitchPrefixes) {
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

// ---- last_core() soundness under reused prefixes ----

TEST(TrailReuse, CoreSoundAfterReusedPrefix) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver solver(enc.formula, inc_config(true));
  // SAT rungs first so the UNSAT rung enters with a reusable prefix.
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

// ---- clone-after-reused-trail equivalence ----

TEST(TrailReuse, CloneAfterRetainedTrailIsEquivalent) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  CdclSolver solver(enc.formula, inc_config(true));
  const std::vector<Lit> assume = {Lit::negative(enc.y(6)),
                                   Lit::negative(enc.y(5))};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  // The trail prefix for `assume` is retained; the clone must come out
  // quiescent and answer every query like a fresh engine would.
  std::unique_ptr<SolverEngine> clone = solver.clone();
  ASSERT_EQ(clone->solve(), SolveResult::Sat);
  EXPECT_TRUE(enc.formula.satisfied_by(clone->model()));
  const std::vector<Lit> unsat_ladder = {Lit::negative(enc.y(6)),
                                         Lit::negative(enc.y(5)),
                                         Lit::negative(enc.y(4))};
  EXPECT_EQ(clone->solve({}, unsat_ladder), SolveResult::Unsat);
  // The original keeps working after the clone, reuse intact.
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  EXPECT_TRUE(enc.formula.satisfied_by(solver.model()));
}

// ---- inprocess-Full interaction: substitution forces the lazy backtrack ----

TEST(TrailReuse, InprocessFullAfterRetainedTrail) {
  // x0 <-> x1 chained equivalences plus a free side: after a retained
  // assumption trail, the public inprocess() hook must lazily backtrack
  // to the root before substituting (it asserts level 0 internally), and
  // later solves must not reuse the stale pre-substitution prefix.
  Formula f;
  const Var x0 = f.new_var();
  const Var x1 = f.new_var();
  const Var x2 = f.new_var();
  const Var x3 = f.new_var();
  f.add_clause({Lit::negative(x0), Lit::positive(x1)});
  f.add_clause({Lit::negative(x1), Lit::positive(x0)});
  f.add_clause({Lit::positive(x2), Lit::positive(x3)});
  SolverConfig config = inc_config(true);
  config.inprocess = InprocessMode::Full;
  CdclSolver solver(f, config);
  const std::vector<Lit> assume = {Lit::positive(x0), Lit::positive(x2)};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  solver.inprocess();
  EXPECT_GE(solver.replaced_vars(), 1);
  // Same assumptions again: the retained prefix was discarded, so this
  // re-propagates through the substituted alphabet and must still agree.
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
  EXPECT_EQ(solver.model()[x1], LBool::True);
  // And an assumption naming the substituted-away variable still works.
  const std::vector<Lit> through_sub = {Lit::negative(x1)};
  ASSERT_EQ(solver.solve({}, through_sub), SolveResult::Sat);
  EXPECT_EQ(solver.model()[x0], LBool::False);
}

// ---- mutation after a retained trail ----

TEST(TrailReuse, AddClauseAfterRetainedTrail) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  CdclSolver solver(f, inc_config(true));
  const std::vector<Lit> assume = {Lit::positive(a)};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  // add_clause() must lazily discard the retained [a] prefix; the new
  // clause then makes that same assumption infeasible.
  ASSERT_TRUE(solver.add_clause({Lit::negative(a)}));
  EXPECT_EQ(solver.solve({}, assume), SolveResult::Unsat);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[a], LBool::False);
  EXPECT_EQ(solver.model()[b], LBool::True);
}

TEST(TrailReuse, ReconfigureAfterRetainedTrail) {
  const ColoringEncoding enc =
      encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
  // Retain a trail, then flip the features off via reconfigure(): the
  // prefix must be discarded and subsequent solves run the classic path.
  CdclSolver ladder(enc.formula, inc_config(true));
  const std::vector<Lit> assume = {Lit::negative(enc.y(6))};
  ASSERT_EQ(ladder.solve({}, assume), SolveResult::Sat);
  ladder.reconfigure(inc_config(false));
  ASSERT_EQ(ladder.solve({}, assume), SolveResult::Sat);
  EXPECT_TRUE(enc.formula.satisfied_by(ladder.model()));
}

}  // namespace
}  // namespace symcolor
