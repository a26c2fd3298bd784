// Cutting-planes PB conflict analysis tests: strength separation against
// the clause-weakening path on pigeonhole counting instances, learned-PB
// database reduction, brute-force soundness sweeps, weaken-vs-native
// equivalence on the queen/myciel optimizer suite at 1 and 2 portfolio
// threads, and the int64 overflow guards on PB construction and solving.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "util/rng.h"

namespace symcolor {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Pigeonhole with the per-hole at-most-one rows kept as genuine PB
/// constraints (not expanded to clauses): the workload where cutting
/// planes is exponentially stronger than clause learning.
Formula php_pb(int pigeons, int holes) {
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
    std::vector<Lit> col;
    for (int p = 0; p < pigeons; ++p) {
      col.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_at_most(col, 1);
  }
  return f;
}

bool brute_force_sat(const Formula& f) {
  const int n = f.num_vars();
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<LBool> vals(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] =
          (mask >> i) & 1 ? LBool::True : LBool::False;
    }
    if (f.satisfied_by(vals)) return true;
  }
  return false;
}

// ---- strength: native PB learning vs clause weakening ----

TEST(CuttingPlanes, RefutesPigeonholeExponentiallyFaster) {
  // PHP(8,7) with PB at-most-one rows: the weakening path needs thousands
  // of conflicts (clause learning cannot count), the cutting-planes path
  // derives the counting argument in a few hundred.
  const Formula f = php_pb(8, 7);
  SolverConfig weaken;
  weaken.pb_analysis = PbAnalysis::Weaken;
  SolverConfig native = weaken;
  native.pb_analysis = PbAnalysis::CuttingPlanes;

  CdclSolver w(f, weaken);
  CdclSolver n(f, native);
  EXPECT_EQ(w.solve(), SolveResult::Unsat);
  EXPECT_EQ(n.solve(), SolveResult::Unsat);
  EXPECT_EQ(w.stats().learned_pbs, 0);
  EXPECT_GT(n.stats().learned_pbs, 0);
  EXPECT_GT(n.stats().pb_resolutions, 0);
  // The separation is orders of magnitude; assert a conservative gap so
  // heuristic drift cannot flake the test.
  EXPECT_GT(w.stats().conflicts, 2000);
  EXPECT_LT(n.stats().conflicts, 1000);
}

TEST(CuttingPlanes, GalenaProfileUsesNativePbLearning) {
  EXPECT_EQ(profile_config(SolverKind::Galena).pb_analysis,
            PbAnalysis::CuttingPlanes);
  EXPECT_EQ(profile_config(SolverKind::PbsII).pb_analysis, PbAnalysis::Weaken);
  CdclSolver solver(php_pb(8, 7), profile_config(SolverKind::Galena));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().learned_pbs, 0);
}

TEST(CuttingPlanes, LearnedPbDatabaseIsReduced) {
  // A tiny learnt limit forces reduce_db() while native analysis keeps
  // learning PB rows: the PB tier machinery must delete cold rows and the
  // answer must be unaffected.
  SolverConfig config;
  config.pb_analysis = PbAnalysis::CuttingPlanes;
  config.max_learnts_init = 8;
  CdclSolver solver(php_pb(9, 8), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().learned_pbs, 0);
  EXPECT_GT(solver.stats().deleted_pbs, 0);
  EXPECT_LT(solver.stats().deleted_pbs, solver.stats().learned_pbs);
}

TEST(CuttingPlanes, AssumptionsWithPbConflicts) {
  // Assumption pseudo-decisions have no reason to resolve on; analysis
  // must still terminate (weaken-at-decision or clausal fallback) and the
  // assumption answer must stay exact and non-sticky.
  Formula f;
  const Var first = f.new_vars(5);
  std::vector<Lit> lits;
  for (int i = 0; i < 5; ++i) lits.push_back(Lit::positive(first + i));
  f.add_at_least(lits, 3);
  SolverConfig config;
  config.pb_analysis = PbAnalysis::CuttingPlanes;
  CdclSolver solver(f, config);
  const std::vector<Lit> assume{~lits[0], ~lits[1], ~lits[2]};
  EXPECT_EQ(solver.solve({}, assume), SolveResult::Unsat);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
}

// ---- soundness sweeps against brute force ----

class CuttingPlanesSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CuttingPlanesSweep, MixedCnfPbAgreesWithBruteForce) {
  Rng rng(GetParam());
  const int vars = 8;
  Formula f;
  f.new_vars(vars);
  for (int c = 0; c < 8; ++c) {
    Clause clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    }
    f.add_clause(std::move(clause));
  }
  for (int c = 0; c < 4; ++c) {
    std::vector<PbTerm> terms;
    for (int i = 0; i < 4; ++i) {
      terms.push_back({static_cast<std::int64_t>(1 + rng.below(4)),
                       Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5))});
    }
    f.add_pb(PbConstraint::at_least(std::move(terms),
                                    static_cast<std::int64_t>(1 + rng.below(6))));
  }
  // A tiny learnt limit keeps the learned-PB GC churning through the
  // whole sweep, so compaction/remap bugs cannot hide.
  SolverConfig config;
  config.pb_analysis = PbAnalysis::CuttingPlanes;
  config.max_learnts_init = 4;
  CdclSolver solver(f, config);
  const SolveResult r = solver.solve();
  ASSERT_NE(r, SolveResult::Unknown);
  EXPECT_EQ(r == SolveResult::Sat, brute_force_sat(f));
  if (r == SolveResult::Sat) {
    EXPECT_TRUE(f.satisfied_by(solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CuttingPlanesSweep,
                         ::testing::Range<std::uint64_t>(300, 325));

// ---- weaken vs cutting-planes equivalence on the coloring suite ----

TEST(PbAnalysisEquivalence, OptimizerOptimaMatchOnQueenMyciel) {
  // chi(queen5) = 5, chi(myciel3) = 4. Both analysis modes, at 1 and 2
  // portfolio threads, must report identical optima through the linear
  // optimizer (whose objective-bound constraints are genuine weighted PB
  // rows — exactly the path native analysis changes).
  struct Case {
    Graph graph;
    int optimum;
  };
  std::vector<Case> cases;
  cases.push_back({make_queen_graph(5, 5), 5});
  cases.push_back({make_myciel_dimacs(3), 4});
  for (const Case& c : cases) {
    const ColoringEncoding enc =
        encode_coloring(c.graph, c.optimum + 2, SbpOptions::nu_sc());
    for (const int threads : {1, 2}) {
      SolverConfig weaken = profile_config(SolverKind::PbsII);
      weaken.portfolio_threads = threads;
      SolverConfig native = weaken;
      native.pb_analysis = PbAnalysis::CuttingPlanes;

      const OptResult w =
          minimize(enc.formula, weaken, {}, SearchStrategy::Linear);
      const OptResult n =
          minimize(enc.formula, native, {}, SearchStrategy::Linear);
      ASSERT_EQ(w.status, OptStatus::Optimal) << threads << " threads";
      ASSERT_EQ(n.status, OptStatus::Optimal) << threads << " threads";
      EXPECT_EQ(w.best_value, c.optimum);
      EXPECT_EQ(n.best_value, w.best_value) << threads << " threads";
      EXPECT_TRUE(enc.formula.satisfied_by(n.model));
    }
  }
}

TEST(PbAnalysisEquivalence, BinarySearchOptimizerMatchesAcrossModes) {
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_coloring(g, 7, SbpOptions::nu_sc());
  SolverConfig native = profile_config(SolverKind::Galena);
  native.portfolio_threads = 2;
  const OptResult b = minimize(enc.formula, native, {}, SearchStrategy::Binary);
  ASSERT_EQ(b.status, OptStatus::Optimal);
  EXPECT_EQ(b.best_value, 5);
}

// ---- int64 overflow guards (construction and solving) ----

TEST(PbOverflow, CoefficientSumOverflowRejectedAtConstruction) {
  // True coefficient sum is 3 * (kMax/2 + 1) > int64: before the checked
  // normalization this wrapped negative, is_contradiction() reported
  // true, and the solver returned Unsat for a satisfiable constraint.
  const std::int64_t big = kMax / 2 + 1;
  EXPECT_THROW((void)PbConstraint::at_least({{big, Lit::positive(0)},
                                             {big, Lit::positive(1)},
                                             {big, Lit::positive(2)}},
                                            kMax),
               std::overflow_error);
}

TEST(PbOverflow, SameVariableMergeOverflowRejected) {
  // Merging two kMax/2+1 coefficients on one variable overflowed the
  // per-variable accumulator and produced a negative-coefficient term.
  const std::int64_t big = kMax / 2 + 1;
  EXPECT_THROW((void)PbConstraint::at_least(
                   {{big, Lit::positive(0)}, {big, Lit::positive(0)}}, 5),
               std::overflow_error);
  // The negation shift overflows the same way.
  EXPECT_THROW((void)PbConstraint::at_least(
                   {{big, Lit::negative(0)}, {big, Lit::negative(1)},
                    {big, Lit::negative(2)}},
                   5),
               std::overflow_error);
  EXPECT_THROW((void)PbConstraint::at_most({{1, Lit::positive(0)}},
                                           std::numeric_limits<std::int64_t>::min()),
               std::overflow_error);
}

TEST(PbOverflow, Int64MinCoefficientsRejectedNotNegated) {
  // Negating INT64_MIN is signed-overflow UB; every normalization path
  // that flips a sign (negated-literal merge, the shift, negative net
  // coefficients, at_most conversion) must reject it instead.
  const std::int64_t lowest = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW((void)PbConstraint::at_least({{lowest, Lit::negative(0)}}, 0),
               std::overflow_error);
  EXPECT_THROW((void)PbConstraint::at_least({{lowest, Lit::positive(0)}}, 0),
               std::overflow_error);
  EXPECT_THROW((void)PbConstraint::at_most({{lowest, Lit::positive(0)}}, 0),
               std::overflow_error);
}

TEST(PbOverflow, NearMaxRepresentableCoefficientsSolveCorrectly) {
  // Constraints whose normal form stays within int64 must keep working at
  // the edge, in both analysis modes.
  const std::int64_t big = kMax / 2;
  for (const PbAnalysis mode :
       {PbAnalysis::Weaken, PbAnalysis::CuttingPlanes}) {
    Formula f;
    const Var x = f.new_var();
    const Var y = f.new_var();
    const Var z = f.new_var();
    // big*x + big*y >= 2*big - 1 forces both x and y.
    f.add_pb(PbConstraint::at_least(
        {{big, Lit::positive(x)}, {big, Lit::positive(y)}}, 2 * big - 1));
    // big*y + (big-1)*z >= big: satisfied by y alone.
    f.add_pb(PbConstraint::at_least(
        {{big, Lit::positive(y)}, {big - 1, Lit::positive(z)}}, big));
    SolverConfig config;
    config.pb_analysis = mode;
    CdclSolver solver(f, config);
    ASSERT_EQ(solver.solve(), SolveResult::Sat);
    EXPECT_EQ(solver.model()[static_cast<std::size_t>(x)], LBool::True);
    EXPECT_EQ(solver.model()[static_cast<std::size_t>(y)], LBool::True);
    EXPECT_TRUE(f.satisfied_by(solver.model()));
  }
}

TEST(PbOverflow, SingleMaxCoefficientPropagates) {
  Formula f;
  const Var x = f.new_var();
  f.add_pb(PbConstraint::at_least({{kMax, Lit::positive(x)}}, kMax));
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(x)], LBool::True);
}

TEST(PbOverflow, HugeCoefficientConflictsStaySound) {
  // Weighted conflicts whose resolvents may overflow during scaling: the
  // checked arithmetic either completes the native analysis or falls back
  // to weakening — the answer must match brute force either way.
  Rng rng(0xB16C0EF);
  for (int round = 0; round < 10; ++round) {
    const int vars = 6;
    Formula f;
    f.new_vars(vars);
    for (int c = 0; c < 5; ++c) {
      std::vector<PbTerm> terms;
      for (int i = 0; i < 3; ++i) {
        // Coefficients in [kMax/9, kMax/9 + 255]: individually huge, and
        // mutually coprime-ish so resolution multipliers get large fast.
        terms.push_back(
            {kMax / 9 + static_cast<std::int64_t>(rng.below(256)),
             Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5))});
      }
      const std::int64_t bound =
          kMax / 9 + static_cast<std::int64_t>(rng.below(1024));
      f.add_pb(PbConstraint::at_least(std::move(terms), bound));
    }
    for (int c = 0; c < 4; ++c) {
      Clause clause;
      for (int i = 0; i < 2; ++i) {
        clause.push_back(
            Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
      }
      f.add_clause(std::move(clause));
    }
    SolverConfig config;
    config.pb_analysis = PbAnalysis::CuttingPlanes;
    CdclSolver solver(f, config);
    const SolveResult r = solver.solve();
    ASSERT_NE(r, SolveResult::Unknown);
    EXPECT_EQ(r == SolveResult::Sat, brute_force_sat(f)) << "round " << round;
    if (r == SolveResult::Sat) {
      EXPECT_TRUE(f.satisfied_by(solver.model()));
    }
  }
}

}  // namespace
}  // namespace symcolor
