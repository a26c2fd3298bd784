// Tests for the optimization layer (linear/binary/core-guided
// minimization on one persistent engine), the objective selector ladder,
// and the generic branch-and-bound ILP solver (CPLEX stand-in).

#include <gtest/gtest.h>

#include <stdexcept>

#include "cnf/objective_ladder.h"
#include "pb/generic_ilp.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "util/rng.h"

namespace symcolor {
namespace {

/// MIN sum x subject to "at least `lower` of the n variables true".
Formula min_true_vars(int n, int lower) {
  Formula f;
  const Var first = f.new_vars(n);
  std::vector<Lit> lits;
  Objective obj;
  for (int i = 0; i < n; ++i) {
    lits.push_back(Lit::positive(first + i));
    obj.terms.push_back({1, Lit::positive(first + i)});
  }
  f.add_at_least(lits, lower);
  f.set_objective(obj);
  return f;
}

/// Brute-force optimum of a formula with small var count.
std::int64_t brute_force_min(const Formula& f) {
  const int n = f.num_vars();
  std::int64_t best = -1;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<LBool> vals(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] =
          (mask >> i) & 1 ? LBool::True : LBool::False;
    }
    if (!f.satisfied_by(vals)) continue;
    const std::int64_t value = f.objective()->value(vals);
    if (best < 0 || value < best) best = value;
  }
  return best;
}

TEST(MinimizeLinear, SimpleCardinalityObjective) {
  const Formula f = min_true_vars(6, 3);
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 3);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

TEST(MinimizeLinear, InfeasibleReported) {
  Formula f = min_true_vars(3, 2);
  // Forbid every variable: infeasible.
  for (int i = 0; i < 3; ++i) f.add_unit(Lit::negative(i));
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Infeasible);
}

TEST(MinimizeLinear, NoObjectiveDegeneratesToDecision) {
  Formula f;
  const Var a = f.new_var();
  f.add_unit(Lit::positive(a));
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_FALSE(r.model.empty());
}

TEST(MinimizeLinear, ZeroOptimumWhenUnconstrained) {
  Formula f;
  Objective obj;
  const Var first = f.new_vars(4);
  for (int i = 0; i < 4; ++i) obj.terms.push_back({1, Lit::positive(first + i)});
  f.set_objective(obj);
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 0);
}

TEST(MinimizeLinear, WeightedObjective) {
  // minimize 5a + b + c subject to a | b, a | c: optimum b=c=1 => 2.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_clause({Lit::positive(a), Lit::positive(c)});
  Objective obj;
  obj.terms = {{5, Lit::positive(a)}, {1, Lit::positive(b)}, {1, Lit::positive(c)}};
  f.set_objective(obj);
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 2);
}

TEST(MinimizeBinary, MatchesLinear) {
  const Formula f = min_true_vars(7, 4);
  const OptResult lin = minimize(f, {}, {}, SearchStrategy::Linear);
  const OptResult bin = minimize(f, {}, {}, SearchStrategy::Binary);
  EXPECT_EQ(bin.status, OptStatus::Optimal);
  EXPECT_EQ(bin.best_value, lin.best_value);
}

TEST(MinimizeBinary, InfeasibleReported) {
  Formula f = min_true_vars(3, 2);
  for (int i = 0; i < 3; ++i) f.add_unit(Lit::negative(i));
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Binary);
  EXPECT_EQ(r.status, OptStatus::Infeasible);
}

TEST(MinimizeCore, MatchesLinearOnCardinalityObjective) {
  const Formula f = min_true_vars(7, 4);
  const OptResult lin = minimize(f, {}, {}, SearchStrategy::Linear);
  const OptResult core = minimize(f, {}, {}, SearchStrategy::CoreGuided);
  EXPECT_EQ(core.status, OptStatus::Optimal);
  EXPECT_EQ(core.best_value, lin.best_value);
  EXPECT_TRUE(f.satisfied_by(core.model));
}

TEST(MinimizeCore, WeightedObjective) {
  // minimize 5a + b + c subject to a | b, a | c: optimum b=c=1 => 2. The
  // disjoint-core prelude mines cores over the soft term assumptions and
  // lifts the lower bound by their minimum weights before bisecting.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_clause({Lit::positive(a), Lit::positive(c)});
  Objective obj;
  obj.terms = {{5, Lit::positive(a)}, {1, Lit::positive(b)}, {1, Lit::positive(c)}};
  f.set_objective(obj);
  const OptResult r = minimize(f, {}, {}, SearchStrategy::CoreGuided);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 2);
}

TEST(MinimizeCore, InfeasibleReportedThroughEmptyCore) {
  Formula f = min_true_vars(3, 2);
  for (int i = 0; i < 3; ++i) f.add_unit(Lit::negative(i));
  const OptResult r = minimize(f, {}, {}, SearchStrategy::CoreGuided);
  EXPECT_EQ(r.status, OptStatus::Infeasible);
}

TEST(Minimize, AllStrategiesCountProbesOnOneEngine) {
  // Cumulative engine stats are the zero-rebuild witness: conflicts and
  // learned clauses keep accumulating across probes instead of resetting
  // with a fresh solver per probe.
  const Formula f = min_true_vars(8, 5);
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    const OptResult r = minimize(f, {}, {}, strategy);
    ASSERT_EQ(r.status, OptStatus::Optimal) << search_strategy_name(strategy);
    EXPECT_EQ(r.best_value, 5);
    EXPECT_GE(r.probes, 2) << search_strategy_name(strategy);
  }
}

// ---- objective selector ladder ----

/// Count assignments of the first `original_vars` variables that extend
/// to a model of `f` under `assume`.
int ladder_projected_models(const Formula& f, int original_vars,
                            std::span<const Lit> assume) {
  int count = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << original_vars); ++mask) {
    Formula probe = f;
    for (int i = 0; i < original_vars; ++i) {
      probe.add_unit(Lit(static_cast<Var>(i), ((mask >> i) & 1) == 0));
    }
    CdclSolver solver(probe);
    if (solver.solve(SolveBudget{}, assume) == SolveResult::Sat) ++count;
  }
  return count;
}

TEST(ObjectiveLadder, AtMostMatchesSemanticsOnWeightedObjective) {
  // Objective 3a + 2b + c: achievable values {0,1,2,3,4,5,6}. For every
  // bound W the single ladder assumption must admit exactly the
  // assignments with value <= W.
  Formula f;
  Objective obj;
  obj.terms = {{3, Lit::positive(f.new_var())},
               {2, Lit::positive(f.new_var())},
               {1, Lit::positive(f.new_var())}};
  f.set_objective(obj);
  ObjectiveLadder ladder(&f, obj);
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder.min_value(), 0);
  EXPECT_EQ(ladder.max_value(), 6);
  for (std::int64_t w = -1; w <= 6; ++w) {
    int expected = 0;
    for (int mask = 0; mask < 8; ++mask) {
      const std::int64_t value = 3 * (mask & 1) + 2 * ((mask >> 1) & 1) +
                                 ((mask >> 2) & 1);
      if (value <= w) ++expected;
    }
    const ObjectiveLadder::Bound bound = ladder.at_most(w);
    if (bound.kind == ObjectiveLadder::Bound::Kind::Infeasible) {
      EXPECT_EQ(expected, 0) << "W=" << w;
      continue;
    }
    std::vector<Lit> assume;
    if (bound.kind == ObjectiveLadder::Bound::Kind::Assume) {
      assume.push_back(bound.lit);
    }
    EXPECT_EQ(ladder_projected_models(f, 3, assume), expected) << "W=" << w;
  }
}

TEST(ObjectiveLadder, NormalizesNegativeAndDuplicateTerms) {
  // 2a - 3b + b = 2a - 2b = 2a + 2(~b) - 2: values {-2, 0, 2}.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  Objective obj;
  obj.terms = {{2, Lit::positive(a)},
               {-3, Lit::positive(b)},
               {1, Lit::positive(b)}};
  f.set_objective(obj);
  ObjectiveLadder ladder(&f, obj);
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder.min_value(), -2);
  EXPECT_EQ(ladder.max_value(), 2);
  EXPECT_EQ(ladder.at_most(-3).kind,
            ObjectiveLadder::Bound::Kind::Infeasible);
  EXPECT_EQ(ladder.at_most(2).kind, ObjectiveLadder::Bound::Kind::Free);
  EXPECT_EQ(ladder.at_most(-2).kind, ObjectiveLadder::Bound::Kind::Assume);
  // Bound -2 admits only a=0, b=1; bound 1 admits value <= 0 (3 of 4).
  std::vector<Lit> tight{ladder.at_most(-2).lit};
  EXPECT_EQ(ladder_projected_models(f, 2, tight), 1);
  std::vector<Lit> mid{ladder.at_most(1).lit};
  EXPECT_EQ(ladder_projected_models(f, 2, mid), 3);
}

TEST(ObjectiveLadder, RefusesPastValueCapWithoutTouchingFormula) {
  Formula f;
  Objective obj;
  // Powers of two: every subset sum is distinct, 2^10 values > cap 64.
  for (int i = 0; i < 10; ++i) {
    obj.terms.push_back({std::int64_t{1} << i, Lit::positive(f.new_var())});
  }
  f.set_objective(obj);
  const int vars_before = f.num_vars();
  const int clauses_before = f.num_clauses();
  ObjectiveLadder ladder(&f, obj, /*max_values=*/64);
  EXPECT_FALSE(ladder.ok());
  EXPECT_EQ(f.num_vars(), vars_before);
  EXPECT_EQ(f.num_clauses(), clauses_before);
  // Soft terms stay available for core-guided mining regardless.
  EXPECT_EQ(ladder.soft_terms().size(), 10u);
}

TEST(Minimize, RejectsObjectiveTheLadderRefuses) {
  // 20 distinct powers of two have 2^20 distinct sums, past the ladder's
  // default cap of 2^16 values: minimize() has no search without the
  // ladder, so it must refuse the objective up front for every strategy.
  Formula f;
  Objective obj;
  std::vector<Lit> lits;
  for (int i = 0; i < 20; ++i) {
    const Var v = f.new_var();
    lits.push_back(Lit::positive(v));
    obj.terms.push_back({std::int64_t{1} << i, Lit::positive(v)});
  }
  f.add_at_least(lits, 1);
  f.set_objective(obj);
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    EXPECT_THROW((void)minimize(f, {}, {}, strategy), std::invalid_argument)
        << search_strategy_name(strategy);
  }
}

TEST(Minimize, LowerHintEndsLinearSearchWithoutClosingProbe) {
  // Exactly 3 of 6 true: every model has value 3, the optimum. With the
  // optimum as its proven lower hint, Linear must stop on the first model
  // instead of spending a closing Unsat probe on "<= 2".
  Formula f = min_true_vars(6, 3);
  std::vector<Lit> lits;
  for (Var v = 0; v < 6; ++v) lits.push_back(Lit::positive(v));
  f.add_at_most(lits, 3);
  const OptResult r = minimize(f, {}, {}, SearchStrategy::Linear, 3);
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 3);
  EXPECT_EQ(r.lower_bound, 3);
  EXPECT_EQ(r.probes, 1);
}

TEST(GenericIlp, SimpleOptimum) {
  const Formula f = min_true_vars(6, 3);
  const OptResult r = solve_generic_ilp(f, {});
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 3);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

TEST(GenericIlp, Infeasible) {
  Formula f;
  const Var a = f.new_var();
  f.add_unit(Lit::positive(a));
  f.add_unit(Lit::negative(a));
  const OptResult r = solve_generic_ilp(f, {});
  EXPECT_EQ(r.status, OptStatus::Infeasible);
}

TEST(GenericIlp, DecisionModeWithoutObjective) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_clause({Lit::negative(a), Lit::negative(b)});
  const OptResult r = solve_generic_ilp(f, {});
  EXPECT_EQ(r.status, OptStatus::Optimal);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

TEST(GenericIlp, RejectsNonCardinalityPb) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_pb(PbConstraint::at_least(
      {{2, Lit::positive(a)}, {1, Lit::positive(b)}}, 2));
  EXPECT_THROW((void)solve_generic_ilp(f, {}), std::invalid_argument);
}

TEST(GenericIlp, NoLearningStats) {
  const Formula f = min_true_vars(5, 2);
  const OptResult r = solve_generic_ilp(f, {});
  EXPECT_EQ(r.stats.learned_clauses, 0);
  EXPECT_EQ(r.stats.restarts, 0);
}

TEST(SolverProfiles, AllCdclKindsHaveConfigs) {
  for (const SolverKind kind :
       {SolverKind::PbsOriginal, SolverKind::PbsII, SolverKind::Galena,
        SolverKind::Pueblo}) {
    EXPECT_NO_THROW((void)profile_config(kind));
  }
  EXPECT_THROW((void)profile_config(SolverKind::GenericIlp),
               std::invalid_argument);
}

TEST(SolverProfiles, NamesAreDistinct) {
  EXPECT_EQ(solver_name(SolverKind::PbsII), "PBS II");
  EXPECT_NE(solver_name(SolverKind::Galena), solver_name(SolverKind::Pueblo));
}

TEST(SolverProfiles, ConfigsDiffer) {
  const SolverConfig pbs2 = profile_config(SolverKind::PbsII);
  const SolverConfig galena = profile_config(SolverKind::Galena);
  const SolverConfig pueblo = profile_config(SolverKind::Pueblo);
  EXPECT_NE(pbs2.restart_scheme == galena.restart_scheme &&
                pbs2.var_decay == galena.var_decay,
            true);
  EXPECT_NE(pueblo.restart_base, pbs2.restart_base);
}

// Randomized optimization cross-checks, all four CDCL personalities.
struct OptSweepParams {
  std::uint64_t seed;
  SolverKind kind;
};

class OptimizerSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(OptimizerSweep, MatchesBruteForce) {
  const auto [seed, kind_index] = GetParam();
  const SolverKind kinds[] = {SolverKind::PbsOriginal, SolverKind::PbsII,
                              SolverKind::Galena, SolverKind::Pueblo};
  const SolverKind kind = kinds[kind_index];

  Rng rng(seed);
  const int vars = 7;
  Formula f;
  f.new_vars(vars);
  for (int c = 0; c < 6; ++c) {
    Clause clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    }
    f.add_clause(std::move(clause));
  }
  std::vector<Lit> lits;
  for (int i = 0; i < vars; ++i) lits.push_back(Lit::positive(i));
  f.add_at_least(lits, 1 + static_cast<std::int64_t>(rng.below(3)));
  Objective obj;
  for (int i = 0; i < vars; ++i) obj.terms.push_back({1, Lit::positive(i)});
  f.set_objective(obj);

  const std::int64_t expected = brute_force_min(f);
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    const OptResult r = minimize(f, profile_config(kind), {}, strategy);
    if (expected < 0) {
      EXPECT_EQ(r.status, OptStatus::Infeasible)
          << search_strategy_name(strategy);
    } else {
      EXPECT_EQ(r.status, OptStatus::Optimal)
          << search_strategy_name(strategy);
      EXPECT_EQ(r.best_value, expected) << search_strategy_name(strategy);
    }
  }

  // The generic B&B must agree as well.
  const OptResult g = solve_generic_ilp(f, {});
  if (expected < 0) {
    EXPECT_EQ(g.status, OptStatus::Infeasible);
  } else {
    EXPECT_EQ(g.status, OptStatus::Optimal);
    EXPECT_EQ(g.best_value, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizerSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(200, 208),
                       ::testing::Range(0, 4)));

}  // namespace
}  // namespace symcolor
