// CDCL engine tests: small handcrafted instances, pigeonhole UNSAT
// certificates, PB propagation, assumptions, and randomized cross-checks
// against a brute-force enumerator.

#include <gtest/gtest.h>

#include "cnf/formula.h"
#include "sat/cdcl.h"
#include "sat/clause_arena.h"
#include "sat/luby.h"
#include "sat/watcher_pool.h"
#include "util/rng.h"

namespace symcolor {
namespace {

/// Brute-force satisfiability for formulas with <= 20 variables.
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

Formula pigeonhole(int pigeons, int holes) {
  // PHP(p, h): each pigeon in some hole; no two pigeons share a hole.
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
      c.push_back(Lit::positive(in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_clause(std::move(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_clause(
            {Lit::negative(in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
             Lit::negative(in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)])});
      }
    }
  }
  return f;
}

TEST(Cdcl, EmptyFormulaSat) {
  Formula f;
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(Cdcl, SingleUnitClause) {
  Formula f;
  const Var v = f.new_var();
  f.add_unit(Lit::positive(v));
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[0], LBool::True);
}

TEST(Cdcl, ContradictoryUnitsUnsat) {
  Formula f;
  const Var v = f.new_var();
  f.add_unit(Lit::positive(v));
  f.add_unit(Lit::negative(v));
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(Cdcl, ImplicationChainPropagates) {
  Formula f;
  const Var first = f.new_vars(10);
  for (int i = 0; i + 1 < 10; ++i) {
    f.add_implication(Lit::positive(first + i), Lit::positive(first + i + 1));
  }
  f.add_unit(Lit::positive(first));
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(solver.model()[static_cast<std::size_t>(i)], LBool::True);
}

TEST(Cdcl, SmallUnsatCore) {
  // (a|b) (a|~b) (~a|b) (~a|~b) is unsatisfiable.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_clause({Lit::positive(a), Lit::negative(b)});
  f.add_clause({Lit::negative(a), Lit::positive(b)});
  f.add_clause({Lit::negative(a), Lit::negative(b)});
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(Cdcl, PigeonholeSatWhenHolesSuffice) {
  CdclSolver solver(pigeonhole(4, 4));
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(Cdcl, PigeonholeUnsat) {
  CdclSolver solver(pigeonhole(6, 5));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().conflicts, 0);
}

TEST(Cdcl, ModelSatisfiesFormula) {
  const Formula f = pigeonhole(5, 5);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
}

TEST(Cdcl, PbAtMostOnePropagation) {
  Formula f;
  const Var first = f.new_vars(4);
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) lits.push_back(Lit::positive(first + i));
  f.add_at_most(lits, 1);
  f.add_unit(Lit::positive(first));
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(solver.model()[static_cast<std::size_t>(first + i)], LBool::False);
  }
}

TEST(Cdcl, PbExactlyOneAllCombinations) {
  Formula f;
  const Var first = f.new_vars(3);
  std::vector<Lit> lits;
  for (int i = 0; i < 3; ++i) lits.push_back(Lit::positive(first + i));
  f.add_exactly(lits, 1);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  int true_count = 0;
  for (int i = 0; i < 3; ++i) {
    if (solver.model()[static_cast<std::size_t>(i)] == LBool::True) ++true_count;
  }
  EXPECT_EQ(true_count, 1);
}

TEST(Cdcl, PbInfeasibleBound) {
  Formula f;
  const Var first = f.new_vars(3);
  std::vector<Lit> lits;
  for (int i = 0; i < 3; ++i) lits.push_back(Lit::positive(first + i));
  f.add_at_least(lits, 4);  // contradiction
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(Cdcl, PbWithWeightsPropagates) {
  // 3a + 2b + c >= 5 forces a (max without a is 3 < 5).
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_pb(PbConstraint::at_least(
      {{3, Lit::positive(a)}, {2, Lit::positive(b)}, {1, Lit::positive(c)}}, 5));
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(a)], LBool::True);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(b)], LBool::True);
}

TEST(Cdcl, PbCardinalityConflictLearned) {
  // x1+..+x5 >= 3 together with at-most-one over the same vars: UNSAT.
  Formula f;
  const Var first = f.new_vars(5);
  std::vector<Lit> lits;
  for (int i = 0; i < 5; ++i) lits.push_back(Lit::positive(first + i));
  f.add_at_least(lits, 3);
  f.add_at_most(lits, 1);
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(Cdcl, AssumptionsSatisfiable) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  CdclSolver solver(f);
  const std::vector<Lit> assume{Lit::negative(a)};
  ASSERT_EQ(solver.solve({}, assume), SolveResult::Sat);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(a)], LBool::False);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(b)], LBool::True);
}

TEST(Cdcl, AssumptionsContradictFormula) {
  Formula f;
  const Var a = f.new_var();
  f.add_unit(Lit::positive(a));
  CdclSolver solver(f);
  const std::vector<Lit> assume{Lit::negative(a)};
  EXPECT_EQ(solver.solve({}, assume), SolveResult::Unsat);
  // Without the assumption the instance stays satisfiable.
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(Cdcl, IncrementalClauseAddition) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  solver.add_clause({Lit::negative(a)});
  solver.add_clause({Lit::negative(b)});
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(Cdcl, IncrementalPbAddition) {
  Formula f;
  const Var first = f.new_vars(4);
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) lits.push_back(Lit::positive(first + i));
  f.add_at_least(lits, 2);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  std::vector<PbTerm> terms;
  for (const Lit l : lits) terms.push_back({1, l});
  solver.add_pb(PbConstraint::at_most(terms, 1));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(Cdcl, ConflictBudgetReturnsUnknown) {
  CdclSolver solver(pigeonhole(7, 6));
  EXPECT_EQ(solver.solve(SolveBudget(0, 1)), SolveResult::Unknown);
}

TEST(Cdcl, DeadlineReturnsUnknown) {
  CdclSolver solver(pigeonhole(9, 8));
  const SolveResult r = solver.solve(SolveBudget(0.001));
  // Either it finished very fast or it reports Unknown — never wrong.
  EXPECT_NE(r, SolveResult::Sat);
}

TEST(Cdcl, StatsAccumulate) {
  CdclSolver solver(pigeonhole(6, 5));
  (void)solver.solve();
  EXPECT_GT(solver.stats().decisions, 0);
  EXPECT_GT(solver.stats().propagations, 0);
  EXPECT_GT(solver.stats().learned_clauses, 0);
}

// ---- clause arena storage ----

TEST(ClauseArena, AllocRoundTrip) {
  ClauseArena arena;
  const std::vector<Lit> a{Lit::positive(0), Lit::negative(1),
                           Lit::positive(2)};
  const std::vector<Lit> b{Lit::negative(3), Lit::positive(4)};
  const ClauseRef ra = arena.alloc(a, /*learnt=*/false);
  const ClauseRef rb = arena.alloc(b, /*learnt=*/true);
  ASSERT_EQ(arena.live_clauses(), 2);

  EXPECT_EQ(arena.size(ra), 3);
  EXPECT_FALSE(arena.learnt(ra));
  EXPECT_EQ(arena.size(rb), 2);
  EXPECT_TRUE(arena.learnt(rb));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(arena.lit(ra, i), a[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(arena.lit(rb, i), b[static_cast<std::size_t>(i)]);

  EXPECT_EQ(arena.activity(rb), 0.0f);
  arena.set_activity(rb, 3.5f);
  EXPECT_EQ(arena.activity(rb), 3.5f);
  // Activities are per-record: ra is untouched.
  EXPECT_EQ(arena.activity(ra), 0.0f);

  // Layout-order iteration visits exactly the two records.
  std::vector<ClauseRef> seen;
  for (ClauseRef cr = 0; cr != arena.end_ref(); cr = arena.next(cr)) {
    seen.push_back(cr);
  }
  EXPECT_EQ(seen, (std::vector<ClauseRef>{ra, rb}));
}

TEST(ClauseArena, RelocationCompactsAndForwards) {
  ClauseArena arena;
  std::vector<ClauseRef> refs;
  for (int i = 0; i < 8; ++i) {
    std::vector<Lit> lits{Lit::positive(2 * i), Lit::negative(2 * i + 1),
                          Lit::positive(2 * i + 1)};
    refs.push_back(arena.alloc(lits, i % 2 == 1));
    arena.set_activity(refs.back(), static_cast<float>(i));
  }
  // Delete every other clause, compact the survivors.
  for (int i = 0; i < 8; i += 2) arena.set_deleted(refs[static_cast<std::size_t>(i)]);
  EXPECT_EQ(arena.live_clauses(), 4);

  ClauseArena to;
  for (ClauseRef cr = 0; cr != arena.end_ref(); cr = arena.next(cr)) {
    if (!arena.deleted(cr)) arena.relocate(cr, &to);
  }
  EXPECT_EQ(to.live_clauses(), 4);
  // The new arena holds only live records: half the payload words.
  EXPECT_EQ(to.words(), arena.words() / 2);
  for (int i = 1; i < 8; i += 2) {
    const ClauseRef old = refs[static_cast<std::size_t>(i)];
    ASSERT_TRUE(arena.relocated(old));
    const ClauseRef fwd = arena.forward(old);
    EXPECT_EQ(to.size(fwd), 3);
    EXPECT_EQ(to.learnt(fwd), i % 2 == 1);
    EXPECT_EQ(to.activity(fwd), static_cast<float>(i));
    EXPECT_EQ(to.lit(fwd, 0), Lit::positive(2 * i));
  }
  // Deleted records were never relocated.
  for (int i = 0; i < 8; i += 2) {
    EXPECT_FALSE(arena.relocated(refs[static_cast<std::size_t>(i)]));
  }
}

TEST(Cdcl, ReduceDbShrinksWatcherLists) {
  // Regression for the tombstone leak: deleted clauses used to stay in
  // the clause vector and watch lists forever. With arena GC, every
  // reduction compacts storage, so after solving the watcher count must
  // equal exactly two per live clause — no dead refs linger.
  SolverConfig config;
  config.max_learnts_init = 8;  // force frequent reductions
  CdclSolver solver(pigeonhole(6, 5), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().deleted_clauses, 0);
  EXPECT_GT(solver.stats().arena_collections, 0);
  EXPECT_EQ(solver.total_watchers(),
            2 * static_cast<std::size_t>(solver.live_clauses()));
}

TEST(Cdcl, ArenaGcPreservesAnswersUnderLoad) {
  // GC-under-load: a tiny learnt limit makes reduce_db()/collection fire
  // constantly while random instances are solved; answers must still
  // agree with brute force.
  SolverConfig config;
  config.max_learnts_init = 4;
  Rng rng(0xA11A);
  for (int round = 0; round < 20; ++round) {
    const int vars = 6 + static_cast<int>(rng.below(6));
    Formula f;
    f.new_vars(vars);
    const int clauses = 3 * vars + static_cast<int>(rng.below(12));
    for (int c = 0; c < clauses; ++c) {
      Clause clause;
      const int len = 1 + static_cast<int>(rng.below(4));
      for (int i = 0; i < len; ++i) {
        clause.push_back(
            Lit(static_cast<Var>(rng.below(static_cast<std::uint64_t>(vars))),
                rng.chance(0.5)));
      }
      f.add_clause(std::move(clause));
    }
    CdclSolver solver(f, config);
    const SolveResult r = solver.solve();
    ASSERT_NE(r, SolveResult::Unknown);
    EXPECT_EQ(r == SolveResult::Sat, brute_force_sat(f)) << "round " << round;
    if (r == SolveResult::Sat) {
      EXPECT_TRUE(f.satisfied_by(solver.model()));
    }
    // Storage stays consistent after every solve.
    EXPECT_EQ(solver.total_watchers(),
              2 * static_cast<std::size_t>(solver.live_clauses()));
  }
}

TEST(Cdcl, PbShortCircuitCountsAndStaysCorrect) {
  // A loose PB constraint (slack never near zero) must be short-circuited
  // rather than rescanned, without changing the answer.
  Formula f;
  const Var first = f.new_vars(10);
  std::vector<Lit> lits;
  for (int i = 0; i < 10; ++i) lits.push_back(Lit::positive(first + i));
  f.add_at_least(lits, 1);  // clause-strength, but keep a PB row too
  std::vector<PbTerm> terms;
  for (const Lit l : lits) terms.push_back({1, l});
  f.add_pb(PbConstraint::at_least(terms, 2));  // loose cardinality
  for (int i = 0; i + 1 < 10; ++i) {
    f.add_clause({Lit::negative(first + i), Lit::positive(first + i + 1)});
  }
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(f.satisfied_by(solver.model()));
}

TEST(Luby, FirstElements) {
  const std::vector<std::int64_t> expected{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1,
                                           1, 2, 4, 8};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(luby(static_cast<std::int64_t>(i) + 1), expected[i]) << i;
  }
}

// ---- randomized cross-checks against brute force ----

struct RandomCnfParams {
  int vars;
  int clauses;
  std::uint64_t seed;
};

class RandomCnfTest : public ::testing::TestWithParam<RandomCnfParams> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  const auto [vars, clauses, seed] = GetParam();
  Rng rng(seed);
  Formula f;
  f.new_vars(vars);
  for (int c = 0; c < clauses; ++c) {
    Clause clause;
    const int len = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < len; ++i) {
      clause.push_back(Lit(static_cast<Var>(rng.below(static_cast<std::uint64_t>(vars))),
                           rng.chance(0.5)));
    }
    f.add_clause(std::move(clause));
  }
  CdclSolver solver(f);
  const SolveResult r = solver.solve();
  ASSERT_NE(r, SolveResult::Unknown);
  EXPECT_EQ(r == SolveResult::Sat, brute_force_sat(f));
  if (r == SolveResult::Sat) {
    EXPECT_TRUE(f.satisfied_by(solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomCnfTest,
    ::testing::Values(RandomCnfParams{6, 14, 1}, RandomCnfParams{6, 20, 2},
                      RandomCnfParams{8, 24, 3}, RandomCnfParams{8, 34, 4},
                      RandomCnfParams{10, 30, 5}, RandomCnfParams{10, 44, 6},
                      RandomCnfParams{12, 40, 7}, RandomCnfParams{12, 54, 8},
                      RandomCnfParams{14, 58, 9}, RandomCnfParams{14, 62, 10},
                      RandomCnfParams{9, 38, 11}, RandomCnfParams{11, 46, 12}));

class RandomPbTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPbTest, MixedCnfPbAgreesWithBruteForce) {
  Rng rng(GetParam());
  const int vars = 8;
  Formula f;
  f.new_vars(vars);
  // A few clauses.
  for (int c = 0; c < 8; ++c) {
    Clause clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    }
    f.add_clause(std::move(clause));
  }
  // A few weighted PB constraints.
  for (int c = 0; c < 4; ++c) {
    std::vector<PbTerm> terms;
    for (int i = 0; i < 4; ++i) {
      terms.push_back({static_cast<std::int64_t>(1 + rng.below(3)),
                       Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5))});
    }
    f.add_pb(PbConstraint::at_least(std::move(terms),
                                    static_cast<std::int64_t>(1 + rng.below(5))));
  }
  CdclSolver solver(f);
  const SolveResult r = solver.solve();
  ASSERT_NE(r, SolveResult::Unknown);
  EXPECT_EQ(r == SolveResult::Sat, brute_force_sat(f));
  if (r == SolveResult::Sat) {
    EXPECT_TRUE(f.satisfied_by(solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomPbTest,
                         ::testing::Range<std::uint64_t>(100, 120));

class SolverConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverConfigTest, AllConfigurationsAgreeOnPigeonhole) {
  SolverConfig config;
  switch (GetParam()) {
    case 0: config.restart_scheme = RestartScheme::Luby; break;
    case 1: config.restart_scheme = RestartScheme::Geometric; break;
    case 2: config.minimize_learned = false; break;
    case 3: config.phase_saving = false; break;
    case 4: config.random_branch_freq = 0.05; break;
    case 5: config.default_phase = true; break;
  }
  {
    CdclSolver solver(pigeonhole(5, 5), config);
    EXPECT_EQ(solver.solve(), SolveResult::Sat);
  }
  {
    CdclSolver solver(pigeonhole(6, 5), config);
    EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverConfigTest, ::testing::Range(0, 6));

// ---- flat occurrence pool (watch lists / PB occurrence storage) ----

TEST(WatcherPool, PushGrowIterate) {
  FlatOccPool<int> pool;
  pool.init(4);
  EXPECT_EQ(pool.num_rows(), 4u);
  EXPECT_EQ(pool.live_entries(), 0u);
  for (int i = 0; i < 10; ++i) pool.push(1, i);
  for (int i = 0; i < 3; ++i) pool.push(3, 100 + i);
  EXPECT_EQ(pool.size(1), 10u);
  EXPECT_EQ(pool.size(3), 3u);
  EXPECT_EQ(pool.size(0), 0u);
  EXPECT_EQ(pool.live_entries(), 13u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pool.data(1)[i], i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(pool.row(3)[static_cast<std::size_t>(i)], 100 + i);
  // Doubling growth leaves relocation garbage behind in the slab.
  EXPECT_GT(pool.slab_slots(), pool.live_entries());
}

TEST(WatcherPool, TruncateDropsTail) {
  FlatOccPool<int> pool;
  pool.init(2);
  for (int i = 0; i < 8; ++i) pool.push(0, i);
  pool.truncate(0, 5);
  EXPECT_EQ(pool.size(0), 5u);
  EXPECT_EQ(pool.live_entries(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pool.data(0)[i], i);
  // Pushing after a truncate reuses the freed tail slots.
  pool.push(0, 99);
  EXPECT_EQ(pool.size(0), 6u);
  EXPECT_EQ(pool.data(0)[5], 99);
}

TEST(WatcherPool, CompactRestoresCsrOrderAndDropsGarbage) {
  FlatOccPool<int> pool;
  pool.init(3);
  // Interleave pushes so rows end up scattered through the slab.
  for (int i = 0; i < 20; ++i) pool.push(static_cast<std::size_t>(i % 3), i);
  const std::size_t live_before = pool.live_entries();
  EXPECT_GT(pool.slab_slots(), live_before);
  pool.compact();
  EXPECT_EQ(pool.live_entries(), live_before);
  // After compaction rows sit in index order: each row's entries are
  // contiguous and the structural headroom is bounded (~1.5x + 2).
  EXPECT_LE(pool.slab_slots(), live_before + live_before / 2 + 2 * 3 + 3);
  for (std::size_t r = 0; r < 3; ++r) {
    int expect = static_cast<int>(r);
    for (const int v : pool.row(r)) {
      EXPECT_EQ(v, expect);
      expect += 3;
    }
  }
}

TEST(WatcherPool, RebuildFiltersAndMutates) {
  FlatOccPool<int> pool;
  pool.init(2);
  for (int i = 0; i < 12; ++i) pool.push(static_cast<std::size_t>(i % 2), i);
  // Keep even entries only, mapping each to its half (a mini ref-remap).
  pool.rebuild([](std::size_t, int& v) {
    if (v % 2 != 0) return false;
    v /= 2;
    return true;
  });
  EXPECT_EQ(pool.live_entries(), 6u);
  EXPECT_EQ(pool.size(0), 6u);  // row 0 held 0,2,4,6,8,10 -> 0,1,2,3,4,5
  EXPECT_EQ(pool.size(1), 0u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(pool.data(0)[i], i);
}

TEST(WatcherPool, SparseDetectsGarbageButNotHeadroom) {
  FlatOccPool<int> pool;
  pool.init(8);
  EXPECT_FALSE(pool.sparse());  // empty pool is not sparse
  for (int i = 0; i < 512; ++i) pool.push(0, i);  // doubling garbage piles up
  for (int round = 0; round < 6; ++round) {
    // Repeated grow cycles on a second row inflate the slab further.
    for (int i = 0; i < 64; ++i) pool.push(1, i);
    pool.truncate(1, 0);
  }
  // After compaction the pool is never immediately sparse again.
  pool.compact();
  EXPECT_FALSE(pool.sparse());
}

// ---- LBD metadata in the clause arena ----

TEST(ClauseArena, LbdAndUsedSurviveRelocation) {
  ClauseArena arena;
  const std::vector<Lit> a{Lit::positive(0), Lit::negative(1),
                           Lit::positive(2)};
  const std::vector<Lit> b{Lit::positive(3), Lit::negative(4),
                           Lit::positive(5)};
  const ClauseRef ra = arena.alloc(a, /*learnt=*/true);
  const ClauseRef rb = arena.alloc(b, /*learnt=*/true);
  EXPECT_EQ(arena.lbd(ra), 0);
  EXPECT_FALSE(arena.used(ra));
  arena.set_lbd(ra, 7);
  arena.set_used(ra);
  arena.set_activity(ra, 2.5f);
  EXPECT_EQ(arena.lbd(ra), 7);
  EXPECT_TRUE(arena.used(ra));
  EXPECT_EQ(arena.size(ra), 3);  // metadata must not corrupt the size bits
  arena.clear_used(ra);
  EXPECT_FALSE(arena.used(ra));
  arena.set_used(ra);

  // LBD saturates at its 4-bit cap instead of overflowing into
  // neighboring header bits. Saturation is lossless for retention: every
  // tier threshold sits far below the cap.
  arena.set_lbd(rb, 1 << 20);
  EXPECT_EQ(arena.lbd(rb), 15);
  EXPECT_EQ(arena.size(rb), 3);
  EXPECT_TRUE(arena.learnt(rb));

  // Relocation carries the metadata across a collection.
  ClauseArena to;
  const ClauseRef fa = arena.relocate(ra, &to);
  EXPECT_EQ(to.lbd(fa), 7);
  EXPECT_TRUE(to.used(fa));
  EXPECT_EQ(to.activity(fa), 2.5f);
}

// ---- LBD tiers in reduce_db ----

TEST(CdclLbd, EveryLearntClauseGetsGlue) {
  SolverConfig config;
  CdclSolver solver(pigeonhole(6, 5), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  const SolverStats& stats = solver.stats();
  ASSERT_GT(stats.learned_clauses, 0);
  // Every learnt clause has glue >= 1, and glue never exceeds the clause's
  // literal count, so the sum is bracketed by the other two counters.
  EXPECT_GE(stats.lbd_sum, stats.conflicts);
  EXPECT_LE(stats.lbd_sum, stats.learned_literals + stats.conflicts);
}

TEST(CdclLbd, TierCensusCoversAllLearnts) {
  const Formula f = pigeonhole(7, 6);
  CdclSolver solver(f);
  const std::int64_t problem_clauses = solver.live_clauses();
  // Stop mid-search with learnts attached.
  (void)solver.solve(SolveBudget(0, 300));
  const TierCounts tiers = solver.learned_tier_counts();
  EXPECT_EQ(tiers.core + tiers.mid + tiers.local,
            solver.live_clauses() - problem_clauses);
}

TEST(CdclLbd, WideCoreTierBlocksDeletion) {
  // With the core threshold above any possible glue, every learnt clause
  // is immortal: reduce_db must not delete a single one even under a tiny
  // learnt limit that forces constant reductions.
  SolverConfig config;
  config.max_learnts_init = 8;
  config.tier_core_lbd = 1 << 20;
  CdclSolver solver(pigeonhole(6, 5), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_EQ(solver.stats().deleted_clauses, 0);
  EXPECT_GT(solver.stats().tier_core, 0);
}

TEST(CdclLbd, NarrowTiersRestoreActivityDeletion) {
  // With both thresholds at zero every non-binary learnt clause lands in
  // the local tier, recovering plain activity-driven deletion.
  SolverConfig config;
  config.max_learnts_init = 8;
  config.tier_core_lbd = 0;
  config.tier_mid_lbd = 0;
  CdclSolver solver(pigeonhole(6, 5), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().deleted_clauses, 0);
  EXPECT_EQ(solver.total_watchers(),
            2 * static_cast<std::size_t>(solver.live_clauses()));
}

TEST(CdclLbd, MidTierDemotionAcrossRepeatedReductions) {
  // Unused mid-tier clauses must be demoted to the local pool over
  // repeated reduce_db() calls rather than surviving forever: a wide mid
  // tier plus a tiny learnt limit forces that path.
  SolverConfig config;
  config.max_learnts_init = 8;
  config.tier_core_lbd = 0;       // nothing is immortal
  config.tier_mid_lbd = 1 << 20;  // every clause starts mid
  CdclSolver solver(pigeonhole(7, 6), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().arena_collections, 1);
  EXPECT_GT(solver.stats().tier_demotions, 0);
  EXPECT_GT(solver.stats().deleted_clauses, 0);
}

TEST(CdclLbd, TouchPromotionImprovesGlue) {
  // Re-touching a learnt clause in conflict analysis recomputes its LBD
  // and keeps the smaller value; on pigeonhole instances (dense reuse of
  // learnt clauses) promotions reliably occur.
  SolverConfig config;
  CdclSolver solver(pigeonhole(7, 6), config);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().tier_promotions, 0);
}

// ---- incremental adds through the flat pools ----

TEST(Cdcl, IncrementalAddPbRebuildsOccurrencePool) {
  // add_pb between solves appends through the pool growth path; the next
  // solve() re-compacts. Answers must track the growing constraint set.
  Formula f;
  const Var first = f.new_vars(6);
  std::vector<PbTerm> ones;
  for (int i = 0; i < 6; ++i) ones.push_back({1, Lit::positive(first + i)});
  f.add_pb(PbConstraint::at_least(ones, 2));
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  const std::size_t occs_before = solver.total_pb_occs();
  // Tighten: at least 5 of 6, then force two variables false -> UNSAT.
  ASSERT_TRUE(solver.add_pb(PbConstraint::at_least(ones, 5)));
  EXPECT_GT(solver.total_pb_occs(), occs_before);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  bool ok = solver.add_clause({Lit::negative(first)});
  ok = ok && solver.add_clause({Lit::negative(first + 1)});
  if (ok) {
    EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  }
  // The occurrence pool stays garbage-bounded after the rebuild hook.
  EXPECT_GE(solver.pb_occ_pool_slots(), solver.total_pb_occs());
}

TEST(Cdcl, IncrementalAddClauseGrowsWatcherPools) {
  Formula f;
  f.new_vars(8);
  f.add_clause({Lit::positive(0), Lit::positive(1)});
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  const std::size_t watchers_before = solver.total_watchers();
  ASSERT_TRUE(solver.add_clause(
      {Lit::negative(0), Lit::positive(2), Lit::positive(3)}));
  ASSERT_TRUE(solver.add_clause({Lit::negative(1), Lit::negative(2)}));
  EXPECT_EQ(solver.total_watchers(), watchers_before + 4);
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.total_watchers(),
            2 * static_cast<std::size_t>(solver.live_clauses()));
}

}  // namespace
}  // namespace symcolor
