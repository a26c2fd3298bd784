// CDCL engine tests: small handcrafted instances, pigeonhole UNSAT
// certificates, PB propagation, assumptions, and randomized cross-checks
// against a brute-force enumerator.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <span>
#include <utility>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "sat/clause_arena.h"
#include "sat/grow_buffer.h"
#include "sat/heap.h"
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
  const std::vector<Lit> b{Lit::negative(3), Lit::positive(4),
                           Lit::negative(5), Lit::positive(6)};
  const ClauseRef ra = arena.alloc(a, /*learnt=*/false);
  const ClauseRef rb = arena.alloc(b, /*learnt=*/true);
  ASSERT_EQ(arena.live_clauses(), 2);

  EXPECT_EQ(arena.size(ra), 3);
  EXPECT_FALSE(arena.learnt(ra));
  EXPECT_EQ(arena.size(rb), 4);
  EXPECT_TRUE(arena.learnt(rb));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(arena.lit(ra, i), a[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(arena.lit(rb, i), b[static_cast<std::size_t>(i)]);

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

/// Random mostly-binary formulas for the differential test below. Rounds
/// alternate between two shapes. Random CNFs of at most 14 variables,
/// three in four with a planted model, where the assumptions decide most
/// answers; these settle in two or three conflicts each. And pigeonhole
/// PHP(5, 4) (20 variables) with random literal signs and, in most
/// rounds, one at-most-one pair dropped so it becomes satisfiable: its
/// searches run long enough for reduce_db() and the arena collection to
/// fire while learnt binary clauses are alive.
Formula binary_heavy_formula(Rng& rng, int round) {
  Formula f;
  if (round % 2 == 0) {
    const int vars = 6 + static_cast<int>(rng.below(9));
    f.new_vars(vars);
    const bool planted = round % 8 != 0;
    const auto hidden = static_cast<std::uint32_t>(rng.below(1u << vars));
    const int clauses = 2 * vars + static_cast<int>(rng.below(
                                       static_cast<std::uint64_t>(vars)));
    for (int c = 0; c < clauses; ++c) {
      const double shape = rng.uniform();
      const int len = shape < 0.02 ? 1 : shape < 0.75 ? 2 : 3;
      Clause clause;
      bool satisfied = false;
      for (int i = 0; i < len; ++i) {
        const Lit l(
            static_cast<Var>(rng.below(static_cast<std::uint64_t>(vars))),
            rng.chance(0.5));
        satisfied =
            satisfied || (((hidden >> l.var()) & 1u) != 0) != l.negated();
        clause.push_back(l);
      }
      if (planted && !satisfied) clause[0] = ~clause[0];
      f.add_clause(std::move(clause));
    }
    return f;
  }
  constexpr int kPigeons = 5;
  constexpr int kHoles = 4;
  f.new_vars(kPigeons * kHoles);
  const auto flip = static_cast<std::uint32_t>(rng.below(1u << 20));
  const auto in = [&](int p, int h, bool negated) {
    const int v = p * kHoles + h;
    return Lit(v, negated != (((flip >> v) & 1u) != 0));
  };
  const auto kept = static_cast<int>(
      rng.below(kHoles * kPigeons * (kPigeons - 1) / 2 + 1));
  for (int p = 0; p < kPigeons; ++p) {
    Clause some_hole;
    for (int h = 0; h < kHoles; ++h) some_hole.push_back(in(p, h, false));
    f.add_clause(std::move(some_hole));
  }
  int pair = 0;
  for (int h = 0; h < kHoles; ++h) {
    for (int a = 0; a < kPigeons; ++a) {
      for (int b = a + 1; b < kPigeons; ++b) {
        if (pair++ != kept) f.add_clause({in(a, h, true), in(b, h, true)});
      }
    }
  }
  return f;
}

TEST(CdclDifferential, BinaryHeavyAssumptionSolvesAgreeWithBruteForce) {
  // Each formula is solved under several random assumption sets on one
  // engine whose tiny learnt limit keeps reduce_db() and the arena
  // collection running; every answer, model and core is checked against
  // the formula's full model set, and the storage after every solve.
  SolverConfig config;
  config.max_learnts_init = 8;
  Rng rng(0xB1A2);
  int sat = 0;
  int unsat = 0;
  std::int64_t collections = 0;
  std::int64_t learnt_binaries = 0;
  for (int round = 0; round < 60; ++round) {
    const Formula f = binary_heavy_formula(rng, round);
    const int vars = f.num_vars();
    // Every model, as a bit mask over the variables: a clause holds under
    // assignment a when a sets one of its positive literals or clears one
    // of its negative ones.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> masks;
    for (std::span<const Lit> clause : f.clauses()) {
      std::uint32_t pos = 0;
      std::uint32_t neg = 0;
      for (const Lit l : clause) (l.negated() ? neg : pos) |= 1u << l.var();
      masks.emplace_back(pos, neg);
    }
    std::vector<std::uint32_t> models;
    for (std::uint32_t a = 0; a < (1u << vars) && !f.trivially_unsat(); ++a) {
      if (std::all_of(masks.begin(), masks.end(), [a](const auto& m) {
            return ((a & m.first) | (~a & m.second)) != 0;
          })) {
        models.push_back(a);
      }
    }
    const auto has_model = [&](std::span<const Lit> lits) {
      return std::any_of(models.begin(), models.end(), [&](std::uint32_t a) {
        return std::all_of(lits.begin(), lits.end(), [a](Lit l) {
          return (((a >> l.var()) & 1u) != 0) != l.negated();
        });
      });
    };

    CdclSolver solver(f, config);
    for (int query = 0; query < 10; ++query) {
      std::vector<Lit> assumptions;
      const int count = static_cast<int>(rng.below(5));
      for (int i = 0; i < count; ++i) {
        assumptions.push_back(
            Lit(static_cast<Var>(rng.below(static_cast<std::uint64_t>(vars))),
                rng.chance(0.5)));
      }
      const SolveResult r = solver.solve({}, assumptions);
      ASSERT_NE(r, SolveResult::Unknown);
      EXPECT_EQ(r == SolveResult::Sat, has_model(assumptions))
          << "round " << round << " query " << query;
      if (r == SolveResult::Sat) {
        ++sat;
        EXPECT_TRUE(f.satisfied_by(solver.model()));
        for (const Lit a : assumptions) {
          EXPECT_EQ(solver.model()[static_cast<std::size_t>(a.var())],
                    a.negated() ? LBool::False : LBool::True);
        }
      } else {
        ++unsat;
        const std::span<const Lit> core = solver.last_core();
        for (const Lit c : core) {
          EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), c),
                    assumptions.end())
              << "round " << round << " query " << query;
        }
        EXPECT_FALSE(has_model(core))
            << "round " << round << " query " << query;
      }
      EXPECT_EQ(solver.total_watchers(),
                2 * static_cast<std::size_t>(solver.live_clauses()));
    }
    collections += solver.stats().arena_collections;
    learnt_binaries += solver.learned_tier_counts().binary;
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
  EXPECT_GT(collections, 0);
  EXPECT_GT(learnt_binaries, 0);
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

// ---- realloc-grown storage (clause arena and pool slabs) ----

TEST(GrowBuffer, KeepsContentsAcrossReallocsCopiesAndMoves) {
  constexpr std::uint32_t kN = 200000;  // about 30 grows from empty
  const auto expect_iota = [](const GrowBuffer<std::uint32_t>& b,
                              std::uint32_t n) {
    ASSERT_EQ(b.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) ASSERT_EQ(b[i], i) << "at " << i;
  };
  GrowBuffer<std::uint32_t> buf;
  for (std::uint32_t i = 0; i < kN / 2; ++i) buf.push_back(i);
  std::vector<std::uint32_t> tail(kN / 2);
  std::iota(tail.begin(), tail.end(), kN / 2);
  buf.append(tail.data(), tail.size());
  expect_iota(buf, kN);

  // resize() shrinks, then grows with value-initialized entries.
  buf.resize(kN - 7);
  buf.resize(kN + 5);
  for (std::uint32_t i = kN - 7; i < kN + 5; ++i) EXPECT_EQ(buf[i], 0u);
  buf.resize(kN - 7);
  for (std::uint32_t i = kN - 7; i < kN; ++i) buf.push_back(i);
  expect_iota(buf, kN);

  const GrowBuffer<std::uint32_t> copy(buf);
  expect_iota(copy, kN);
  EXPECT_EQ(copy.capacity(), kN);  // a copy holds exactly the entries

  GrowBuffer<std::uint32_t> small;
  small.push_back(42);
  small = buf;  // copy into a smaller buffer
  expect_iota(small, kN);
  GrowBuffer<std::uint32_t> large(buf);
  large.resize(2 * kN);
  large = small;  // copy into a larger buffer
  expect_iota(large, kN);
  GrowBuffer<std::uint32_t>& alias = large;
  large = alias;  // self-assignment
  expect_iota(large, kN);

  GrowBuffer<std::uint32_t> moved(std::move(large));
  expect_iota(moved, kN);
  EXPECT_EQ(large.size(), 0u);  // NOLINT(bugprone-use-after-move)
  GrowBuffer<std::uint32_t> target;
  target.push_back(7);
  target = std::move(moved);
  expect_iota(target, kN);
  GrowBuffer<std::uint32_t>& self = target;
  target = std::move(self);  // self-move keeps the contents
  expect_iota(target, kN);
  // The source still holds its contents after every copy.
  expect_iota(buf, kN);
}

/// Per-row entry counts and the entries, in push order, of a random fill
/// of `rows` rows.
struct PoolFill {
  std::vector<std::uint32_t> counts;
  std::vector<std::pair<std::size_t, int>> pushes;
};

PoolFill random_pool_fill(std::size_t rows, int entries, std::uint64_t seed) {
  Rng rng(seed);
  PoolFill fill;
  fill.counts.assign(rows, 0);
  for (int i = 0; i < entries; ++i) {
    // Skewed rows: a few long ones, many short or empty ones.
    const std::size_t r = rng.chance(0.3)
                              ? rng.below(3)
                              : rng.below(static_cast<std::uint64_t>(rows));
    ++fill.counts[r];
    fill.pushes.emplace_back(r, i);
  }
  return fill;
}

TEST(WatcherPool, LaidOutPoolFillsLikeAPushOnlyPool) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    constexpr std::size_t kRows = 64;
    const PoolFill fill = random_pool_fill(kRows, 3000, seed);
    FlatOccPool<int> laid;
    laid.init(kRows);
    laid.lay_out(fill.counts);
    FlatOccPool<int> pushed;
    pushed.init(kRows);
    for (const auto& [r, v] : fill.pushes) {
      laid.push(r, v);
      pushed.push(r, v);
    }
    ASSERT_EQ(laid.live_entries(), pushed.live_entries());
    for (std::size_t r = 0; r < kRows; ++r) {
      const std::span<const int> a = laid.row(r);
      const std::span<const int> b = pushed.row(r);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "seed " << seed << " row " << r;
    }
    // The laid-out pool relocated nothing: its slab is exactly the rows'
    // headroom, what a compaction would leave.
    std::size_t headroom = 0;
    for (const std::uint32_t c : fill.counts) {
      headroom += c == 0 ? 0 : c + c / 2 + 2;
    }
    EXPECT_EQ(laid.slab_slots(), headroom) << "seed " << seed;
    EXPECT_GT(pushed.slab_slots(), laid.slab_slots()) << "seed " << seed;
    pushed.compact();
    EXPECT_EQ(pushed.slab_slots(), headroom) << "seed " << seed;
  }
}

TEST(WatcherPool, RowPushedPastItsCountRelocatesInOrder) {
  FlatOccPool<int> pool;
  pool.init(3);
  const std::vector<std::uint32_t> counts{4, 0, 2};
  pool.lay_out(counts);
  const std::size_t laid = pool.slab_slots();
  EXPECT_EQ(laid, (4u + 2 + 2) + (2u + 1 + 2));
  for (int i = 0; i < 2; ++i) pool.push(2, 100 + i);
  // Row 0's block holds 8 cells: the ninth entry relocates the row.
  for (int i = 0; i < 8; ++i) pool.push(0, i);
  EXPECT_EQ(pool.slab_slots(), laid);
  pool.push(0, 8);
  pool.push(1, 50);  // a row counted empty gets its first block
  EXPECT_GT(pool.slab_slots(), laid);
  ASSERT_EQ(pool.size(0), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(pool.data(0)[i], i);
  ASSERT_EQ(pool.size(1), 1u);
  EXPECT_EQ(pool.data(1)[0], 50);
  ASSERT_EQ(pool.size(2), 2u);
  EXPECT_EQ(pool.data(2)[0], 100);
  EXPECT_EQ(pool.data(2)[1], 101);
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

// ---- load path: constructor vs clause-by-clause addition ----

/// A random 3-SAT core plus the shapes the load path must normalize:
/// units first (so later literals are false at level 0), duplicate
/// literals, tautologies, and PB rows (one degenerating to a clause).
struct MessyFormula {
  int num_vars = 0;
  std::vector<Clause> clauses;
  std::vector<PbConstraint> pbs;
};

MessyFormula messy_formula(std::uint64_t seed) {
  Rng rng(seed);
  MessyFormula m;
  m.num_vars = 40;
  auto lit = [&](int v) {
    return rng.chance(0.5) ? Lit::positive(v) : Lit::negative(v);
  };
  auto var = [&] {
    return static_cast<int>(rng.below(static_cast<std::uint64_t>(m.num_vars)));
  };
  m.clauses.push_back({lit(0)});
  m.clauses.push_back({lit(1)});
  for (int i = 0; i < 170; ++i) {
    Clause c = {lit(var()), lit(var()), lit(var())};
    if (i % 7 == 0) c.push_back(c[0]);    // duplicate literal
    if (i % 11 == 0) c.push_back(~c[1]);  // tautology
    // A literal of a unit-clause variable: true or false at level 0.
    if (i % 5 == 0) c.push_back(lit(static_cast<int>(rng.below(2))));
    m.clauses.push_back(std::move(c));
  }
  std::vector<PbTerm> terms;
  for (int i = 0; i < 6; ++i) terms.push_back({1, lit(2 + var() % 38)});
  m.pbs.push_back(PbConstraint::at_most(terms, 3));
  m.pbs.push_back(PbConstraint::at_least(terms, 1));  // a clause as a PB row
  std::vector<PbTerm> weighted;
  for (int i = 0; i < 5; ++i) {
    weighted.push_back({1 + static_cast<std::int64_t>(rng.below(4)),
                        lit(2 + var() % 38)});
  }
  m.pbs.push_back(PbConstraint::at_least(weighted, 4));
  return m;
}

TEST(CdclLoad, ConstructorMatchesClauseByClauseAddition) {
  int sat = 0;
  int unsat = 0;
  std::int64_t conflicts = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const MessyFormula m = messy_formula(seed);
    Formula full;
    full.new_vars(m.num_vars);
    for (const Clause& c : m.clauses) full.add_clause(c);
    for (const PbConstraint& pb : m.pbs) full.add_pb(pb);
    Formula empty;
    empty.new_vars(m.num_vars);

    CdclSolver loaded(full);
    CdclSolver added(empty);
    for (const Clause& c : m.clauses) added.add_clause(c);
    for (const PbConstraint& pb : m.pbs) added.add_pb(pb);

    const SolveResult r = loaded.solve();
    ASSERT_EQ(added.solve(), r) << "seed " << seed;
    conflicts += loaded.stats().conflicts;
    EXPECT_EQ(added.stats().conflicts, loaded.stats().conflicts)
        << "seed " << seed;
    EXPECT_EQ(added.stats().decisions, loaded.stats().decisions)
        << "seed " << seed;
    EXPECT_EQ(added.stats().propagations, loaded.stats().propagations)
        << "seed " << seed;
    if (r == SolveResult::Sat) {
      ++sat;
      EXPECT_EQ(added.model(), loaded.model()) << "seed " << seed;
      EXPECT_TRUE(full.satisfied_by(loaded.model())) << "seed " << seed;
    } else {
      ++unsat;
    }
  }
  // The sweep must exercise both answers, and real search on the way.
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
  EXPECT_GT(conflicts, 0);
}

// load() attaches a formula clause straight from the formula's pool when
// none of its literals is assigned, and copies it through load_clause()
// otherwise. Units placed between and after the clauses that mention
// their variables send clauses of one formula down both paths.
TEST(CdclLoad, UnitsAmongTheClausesMatchClauseByClauseAddition) {
  int sat = 0;
  int unsat = 0;
  std::int64_t conflicts = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    constexpr int kVars = 40;
    auto lit = [&](int v) {
      return rng.chance(0.5) ? Lit::positive(v) : Lit::negative(v);
    };
    auto var = [&] { return static_cast<int>(rng.below(kVars)); };
    // Units on the last four variables, whose literals sort last in a
    // clause (so past its watches): two units between the clauses, two
    // after them.
    auto unit_var = [](int u) { return kVars - 4 + u; };
    std::vector<Clause> clauses;
    for (int i = 0; i < 170; ++i) {
      if (i == 60 || i == 120) clauses.push_back({lit(unit_var(i / 60 - 1))});
      Clause c = {lit(var()), lit(var()), lit(var())};
      if (i % 3 == 0) {
        c.push_back(lit(unit_var(static_cast<int>(rng.below(4)))));
      }
      clauses.push_back(std::move(c));
    }
    clauses.push_back({lit(unit_var(2))});
    clauses.push_back({lit(unit_var(3))});

    Formula full;
    full.new_vars(kVars);
    for (const Clause& c : clauses) full.add_clause(c);
    Formula empty;
    empty.new_vars(kVars);
    CdclSolver loaded(full);
    CdclSolver added(empty);
    for (const Clause& c : clauses) added.add_clause(c);

    const SolveResult r = loaded.solve();
    ASSERT_EQ(added.solve(), r) << "seed " << seed;
    conflicts += loaded.stats().conflicts;
    EXPECT_EQ(added.stats().conflicts, loaded.stats().conflicts)
        << "seed " << seed;
    EXPECT_EQ(added.stats().decisions, loaded.stats().decisions)
        << "seed " << seed;
    EXPECT_EQ(added.stats().propagations, loaded.stats().propagations)
        << "seed " << seed;
    if (r == SolveResult::Sat) {
      ++sat;
      EXPECT_EQ(added.model(), loaded.model()) << "seed " << seed;
      EXPECT_TRUE(full.satisfied_by(loaded.model())) << "seed " << seed;
    } else {
      ++unsat;
    }
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
  EXPECT_GT(conflicts, 0);
}

// load() lays the watch rows out from a count of every clause's first two
// literals, so a formula with no level-0 unit loads without relocating a
// row: the pools hold each row's headroom and no garbage.
TEST(CdclLoad, LoadLeavesNoGarbageInTheWatchPools) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    constexpr int kVars = 60;
    Formula f;
    f.new_vars(kVars);
    for (int i = 0; i < 400; ++i) {
      // Two to five distinct variables, mostly binary clauses.
      const int len =
          rng.chance(0.6) ? 2 : 3 + static_cast<int>(rng.below(3));
      std::vector<int> vars(kVars);
      std::iota(vars.begin(), vars.end(), 0);
      Clause c;
      for (int k = 0; k < len; ++k) {
        const auto j = static_cast<std::size_t>(k) +
                       rng.below(static_cast<std::uint64_t>(kVars - k));
        std::swap(vars[static_cast<std::size_t>(k)], vars[j]);
        const int v = vars[static_cast<std::size_t>(k)];
        c.push_back(rng.chance(0.5) ? Lit::positive(v) : Lit::negative(v));
      }
      f.add_clause(c);
    }
    std::vector<std::uint32_t> bin(2 * kVars, 0);
    std::vector<std::uint32_t> lng(2 * kVars, 0);
    std::size_t watches = 0;
    for (std::span<const Lit> c : f.clauses()) {
      ASSERT_GE(c.size(), 2u);
      std::vector<std::uint32_t>& counts = c.size() == 2 ? bin : lng;
      ++counts[static_cast<std::size_t>(c[0].code())];
      ++counts[static_cast<std::size_t>(c[1].code())];
      watches += 2;
    }
    std::size_t headroom = 0;
    for (const auto* counts : {&bin, &lng}) {
      for (const std::uint32_t n : *counts) {
        headroom += n == 0 ? 0 : n + n / 2 + 2;
      }
    }
    const CdclSolver solver(f);
    ASSERT_EQ(solver.total_watchers(), watches) << "seed " << seed;
    EXPECT_EQ(solver.watcher_pool_slots(), headroom) << "seed " << seed;
  }
}

TEST(CdclLoad, PbRowsAddedAfterASolveMatchLoadingThemUpFront) {
  int sat = 0;
  int unsat = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const MessyFormula m = messy_formula(seed);
    // One more row over the unit-clause variables, so some of its
    // literals are already true or false at level 0 when it is added.
    std::vector<PbConstraint> rows = m.pbs;
    const Lit unit0 = m.clauses[0][0];
    const Lit unit1 = m.clauses[1][0];
    const int v = 2 + static_cast<int>(seed % 30);
    rows.push_back(PbConstraint::at_least({{2, unit0},
                                           {2, ~unit1},
                                           {1, Lit::positive(v)},
                                           {1, Lit::negative(v + 5)},
                                           {1, Lit::positive(v + 7)}},
                                          3));
    Formula clauses;
    clauses.new_vars(m.num_vars);
    for (const Clause& c : m.clauses) clauses.add_clause(c);
    Formula full = clauses;
    for (const PbConstraint& pb : rows) full.add_pb(pb);

    // The clauses alone are solved first, with the units (and anything
    // learnt at level 0) assigned; no literal has a PB occurrence yet.
    CdclSolver staged(clauses);
    (void)staged.solve();
    for (const PbConstraint& pb : rows) (void)staged.add_pb(pb);
    CdclSolver upfront(full);

    const SolveResult r = upfront.solve();
    ASSERT_EQ(staged.solve(), r) << "seed " << seed;
    if (r == SolveResult::Sat) {
      ++sat;
      EXPECT_TRUE(full.satisfied_by(staged.model())) << "seed " << seed;
    } else {
      ++unsat;
    }
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
}

// ---- VSIDS order heap ----

TEST(ActivityHeap, PopsAMaximalScoreAndEachInsertOnce) {
  constexpr int n = 64;
  Rng rng(11);
  ActivityHeap heap;
  heap.assign_scores(n, 0.0);
  std::vector<Var> all(n);
  std::iota(all.begin(), all.end(), 0);
  heap.rebuild(all);
  std::vector<double>& score = heap.scores();
  std::vector<int> inserted(n, 1);
  std::vector<int> popped(n, 0);
  const auto pop_and_check = [&] {
    const Var top = heap.pop_max();
    ASSERT_GE(top, 0);
    ASSERT_LT(top, n);
    for (Var u = 0; u < n; ++u) {
      if (heap.contains(u)) {
        EXPECT_GE(score[static_cast<std::size_t>(top)],
                  score[static_cast<std::size_t>(u)]);
      }
    }
    ++popped[static_cast<std::size_t>(top)];
  };
  // The searcher's bump schedule: a growing increment, and one uniform
  // 1e-100 rescale once a score passes 1e100 (about 4,500 bumps in).
  double inc = 1.0;
  int rescales = 0;
  for (int bumps = 0; bumps < 6000;) {
    const std::uint64_t op = rng.below(8);
    if (op < 5) {  // raise any variable's score, in the heap or not
      const auto v = static_cast<Var>(rng.below(n));
      double& a = score[static_cast<std::size_t>(v)];
      a += inc * static_cast<double>(1 + rng.below(4));
      if (a > 1e100) {
        for (double& x : score) x *= 1e-100;
        inc *= 1e-100;
        ++rescales;
      }
      heap.increase(v);
      inc /= 0.95;
      ++bumps;
    } else if (op == 5 && !heap.empty()) {
      pop_and_check();
    } else if (op >= 6) {  // inserting a present variable is a no-op
      const auto v = static_cast<Var>(rng.below(n));
      const bool present = heap.contains(v);
      heap.insert(v);
      if (!present) ++inserted[static_cast<std::size_t>(v)];
    }
  }
  while (!heap.empty()) pop_and_check();
  EXPECT_EQ(rescales, 1);
  EXPECT_EQ(popped, inserted);
}

// ---- pinned search path ----
//
// The exact search of every CDCL profile on four fixed formulas. A
// change that means to leave the search alone (a refactor, a storage
// layout change) must leave every count here as it is; a change to the
// search itself updates the table and says why in its commit.

struct SearchCounts {
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t learned_clauses = 0;
  std::int64_t learned_pbs = 0;
  bool operator==(const SearchCounts&) const = default;
};

void PrintTo(const SearchCounts& c, std::ostream* os) {
  *os << "{" << c.conflicts << ", " << c.decisions << ", " << c.propagations
      << ", " << c.learned_clauses << ", " << c.learned_pbs << "}";
}

SearchCounts search_counts(const SolverStats& s) {
  return {s.conflicts, s.decisions, s.propagations, s.learned_clauses,
          s.learned_pbs};
}

/// Pigeonhole with each hole's at-most-one as one PB row: the counting
/// argument cutting planes learns directly and clauses cannot.
Formula pb_pigeonhole(int pigeons, int holes) {
  Formula f;
  f.new_vars(pigeons * holes);
  const auto in = [holes](int p, int h) {
    return Lit::positive(p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> some_hole;
    for (int h = 0; h < holes; ++h) some_hole.push_back(in(p, h));
    f.add_clause(some_hole);
  }
  for (int h = 0; h < holes; ++h) {
    std::vector<Lit> occupants;
    for (int p = 0; p < pigeons; ++p) occupants.push_back(in(p, h));
    f.add_at_most(occupants, 1);
  }
  return f;
}

struct PinnedSearch {
  const char* name;
  SolverKind kind;
  SearchCounts coloring_cnf;   // myciel4, 4 colors, CNF: unsat, capped
  SearchCounts coloring_pb;    // the same question, PB exactly-one rows
  SearchCounts pb_pigeonhole;  // 8 pigeons, 7 holes, PB at-most-one rows
  SearchCounts assumptions;    // queen5_5 ladder, chrono on every jump
};

void PrintTo(const PinnedSearch& pin, std::ostream* os) { *os << pin.name; }

class PinnedSearchTest : public ::testing::TestWithParam<PinnedSearch> {};

TEST_P(PinnedSearchTest, CountsMatchTheTable) {
  const PinnedSearch& pin = GetParam();
  const SolverConfig config = profile_config(pin.kind);
  for (const bool cnf : {true, false}) {
    const Graph myciel4 = make_myciel_dimacs(4);
    const ColoringEncoding enc =
        cnf ? encode_k_coloring_cnf(myciel4, 4, SbpOptions::none())
            : encode_k_coloring(myciel4, 4, SbpOptions::none());
    CdclSolver solver(enc.formula, config);
    EXPECT_NE(solver.solve(SolveBudget(0, 3000)), SolveResult::Sat);
    EXPECT_EQ(search_counts(solver.stats()),
              cnf ? pin.coloring_cnf : pin.coloring_pb);
  }
  {
    CdclSolver solver(pb_pigeonhole(8, 7), config);
    EXPECT_NE(solver.solve(SolveBudget(0, 3000)), SolveResult::Sat);
    EXPECT_EQ(search_counts(solver.stats()), pin.pb_pigeonhole);
    if (config.pb_analysis == PbAnalysis::CuttingPlanes) {
      EXPECT_GT(solver.stats().pb_resolutions, 0);
      EXPECT_GT(solver.stats().learned_pbs, 0);
    }
  }
  {
    const ColoringEncoding enc =
        encode_k_coloring(make_queen_graph(5, 5), 7, SbpOptions::none());
    SolverConfig chrono = config;
    chrono.chrono_threshold = 1;
    CdclSolver solver(enc.formula, chrono);
    std::vector<Lit> assume;
    for (int k = 6; k >= 4; --k) {  // chi(queen5_5) = 5: SAT, SAT, UNSAT
      assume.push_back(Lit::negative(enc.y(k)));
      (void)solver.solve(SolveBudget(0, 3000), assume);
    }
    EXPECT_GT(solver.stats().chrono_backtracks, 0);
    EXPECT_EQ(search_counts(solver.stats()), pin.assumptions);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, PinnedSearchTest,
    ::testing::Values(
        PinnedSearch{"Pbs", SolverKind::PbsOriginal,
                     {2538, 2948, 81616, 2533, 0},
                     {2079, 2455, 54139, 2071, 0},
                     {2950, 3426, 33846, 2945, 0},
                     {36, 57, 1397, 36, 0}},
        PinnedSearch{"PbsII", SolverKind::PbsII,
                     {2372, 2830, 76193, 2365, 0},
                     {2584, 3095, 70545, 2573, 0},
                     {3000, 3646, 40999, 3000, 0},
                     {34, 55, 1370, 34, 0}},
        PinnedSearch{"Galena", SolverKind::Galena,
                     {2332, 2753, 72886, 2322, 0},
                     {2501, 2927, 63410, 2476, 13},
                     {105, 183, 1043, 90, 14},
                     {39, 56, 1442, 39, 0}},
        PinnedSearch{"Pueblo", SolverKind::Pueblo,
                     {2663, 3389, 91208, 2658, 0},
                     {2728, 3320, 74792, 2720, 0},
                     {3000, 4067, 45657, 3000, 0},
                     {32, 55, 1328, 32, 0}}),
    [](const ::testing::TestParamInfo<PinnedSearch>& info) {
      return std::string(info.param.name);
    });

// The same pin on a binary-heavy search. The coloring encodings are
// almost all binary clauses (one per edge and color), so this table pins
// a dense random graph, G(30, 300), at K = 8, two colors below its
// DSATUR bound of 10, under SC: its CNF under every profile, and its PB
// encoding, where Galena's cutting planes resolve on binary reasons. Each
// search refutes K = 8 within the cap with learnt binary clauses alive,
// most of them after one or two arena collections.

struct PinnedBinarySearch {
  const char* name;
  SolverKind kind;
  SearchCounts gnm_cnf;  // encode_k_coloring_cnf
  SearchCounts gnm_pb;   // encode_k_coloring
};

void PrintTo(const PinnedBinarySearch& pin, std::ostream* os) {
  *os << pin.name;
}

class PinnedBinarySearchTest
    : public ::testing::TestWithParam<PinnedBinarySearch> {};

TEST_P(PinnedBinarySearchTest, CountsMatchTheTable) {
  const PinnedBinarySearch& pin = GetParam();
  const SolverConfig config = profile_config(pin.kind);
  const Graph g = make_random_gnm(30, 300, 7);
  for (const bool cnf : {true, false}) {
    const ColoringEncoding enc =
        cnf ? encode_k_coloring_cnf(g, 8, SbpOptions::sc_only())
            : encode_k_coloring(g, 8, SbpOptions::sc_only());
    CdclSolver solver(enc.formula, config);
    EXPECT_EQ(solver.solve(SolveBudget(0, 3000)), SolveResult::Unsat);
    EXPECT_EQ(search_counts(solver.stats()), cnf ? pin.gnm_cnf : pin.gnm_pb);
    EXPECT_GT(solver.learned_tier_counts().binary, 0);
    if (!cnf && config.pb_analysis == PbAnalysis::CuttingPlanes) {
      EXPECT_GT(solver.stats().pb_resolutions, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, PinnedBinarySearchTest,
    ::testing::Values(
        PinnedBinarySearch{"Pbs", SolverKind::PbsOriginal,
                           {1021, 1182, 48808, 1014, 0},
                           {976, 1042, 41188, 968, 0}},
        PinnedBinarySearch{"PbsII", SolverKind::PbsII,
                           {762, 883, 34577, 757, 0},
                           {1339, 1513, 61398, 1333, 0}},
        PinnedBinarySearch{"Galena", SolverKind::Galena,
                           {1061, 1272, 53556, 1055, 0},
                           {1263, 1415, 58018, 1252, 5}},
        PinnedBinarySearch{"Pueblo", SolverKind::Pueblo,
                           {1536, 1958, 85582, 1532, 0},
                           {1199, 1484, 58461, 1193, 0}}),
    [](const ::testing::TestParamInfo<PinnedBinarySearch>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace symcolor
