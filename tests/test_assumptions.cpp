// Assumption-native solving: failed-assumption cores (analyze_final),
// core soundness and non-triviality on pigeonhole instances, clone
// validity after Unsat-under-assumptions at 1 and 4 portfolio threads,
// and search-strategy equivalence on the queen/myciel optimizer suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cnf/formula.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "sat/parallel_solver.h"

namespace symcolor {
namespace {

/// Pigeonhole with per-pigeon enable selectors: pigeon p must sit in a
/// hole only when s_p is assumed; the holes enforce at-most-one. With
/// more than `holes` selectors assumed, the instance is Unsat; without
/// assumptions it is trivially Sat (disable everyone).
struct SelectorPhp {
  Formula formula;
  std::vector<Lit> selectors;
};

SelectorPhp selector_php(int pigeons, int holes) {
  SelectorPhp php;
  Formula& f = php.formula;
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(f.new_var());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    const Lit s = Lit::positive(f.new_var());
    php.selectors.push_back(s);
    Clause c{~s};
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
  return php;
}

bool contains(std::span<const Lit> haystack, Lit needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

// ---- failed-assumption cores ----

TEST(AssumptionCore, SoundAndNonTrivialOnPigeonhole) {
  const int holes = 6;
  const int pigeons = holes + 3;
  for (const int threads : {1, 4}) {
    SelectorPhp php = selector_php(pigeons, holes);
    SolverConfig config = profile_config(SolverKind::PbsII);
    config.portfolio_threads = threads;
    const std::unique_ptr<SolverEngine> engine =
        make_solver_engine(php.formula, config);
    ASSERT_EQ(engine->solve(SolveBudget{}, php.selectors), SolveResult::Unsat)
        << threads << " threads";
    const std::span<const Lit> core = engine->last_core();
    // Soundness: every core literal is one of the assumptions, and no
    // literal repeats.
    for (const Lit l : core) {
      EXPECT_TRUE(contains(php.selectors, l)) << threads << " threads";
    }
    for (std::size_t i = 0; i < core.size(); ++i) {
      for (std::size_t j = i + 1; j < core.size(); ++j) {
        EXPECT_NE(core[i], core[j]);
      }
    }
    // Non-triviality: any holes-or-fewer enabled pigeons fit, so a sound
    // core must name at least holes + 1 selectors (and at most all).
    EXPECT_GE(core.size(), static_cast<std::size_t>(holes + 1))
        << threads << " threads";
    EXPECT_LE(core.size(), php.selectors.size());

    // Soundness, semantically: the core alone is already Unsat...
    const std::vector<Lit> core_only(core.begin(), core.end());
    EXPECT_EQ(engine->solve(SolveBudget{}, core_only), SolveResult::Unsat);
    // ...so its negation clause is a consequence: adding it and
    // re-solving under the full assumption set stays Unsat...
    Clause negation;
    for (const Lit l : core_only) negation.push_back(~l);
    ASSERT_TRUE(engine->add_clause(negation));
    EXPECT_EQ(engine->solve(SolveBudget{}, php.selectors), SolveResult::Unsat);
    // ...while the formula itself stays satisfiable (and the core of a
    // Sat answer is empty).
    EXPECT_EQ(engine->solve(), SolveResult::Sat);
    EXPECT_TRUE(engine->last_core().empty());
  }
}

TEST(AssumptionCore, EmptyWhenFormulaItselfUnsat) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_unit(Lit::positive(a));
  f.add_unit(Lit::negative(a));
  CdclSolver solver(f);
  const std::vector<Lit> assume{Lit::positive(b)};
  EXPECT_EQ(solver.solve(SolveBudget{}, assume), SolveResult::Unsat);
  EXPECT_TRUE(solver.last_core().empty());
}

TEST(AssumptionCore, RootImpliedComplementYieldsUnitCore) {
  Formula f;
  const Var a = f.new_var();
  f.new_var();  // keep a branching var around
  f.add_unit(Lit::positive(a));
  CdclSolver solver(f);
  const std::vector<Lit> assume{Lit::negative(a)};
  ASSERT_EQ(solver.solve(SolveBudget{}, assume), SolveResult::Unsat);
  ASSERT_EQ(solver.last_core().size(), 1u);
  EXPECT_EQ(solver.last_core()[0], Lit::negative(a));
  // Without the assumption the instance is satisfiable again.
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(AssumptionCore, ContradictoryAssumptionsFormTheCore) {
  Formula f;
  const Var a = f.new_var();
  f.new_var();
  CdclSolver solver(f);
  const std::vector<Lit> assume{Lit::positive(a), Lit::negative(a)};
  ASSERT_EQ(solver.solve(SolveBudget{}, assume), SolveResult::Unsat);
  const std::span<const Lit> core = solver.last_core();
  ASSERT_EQ(core.size(), 2u);
  EXPECT_TRUE(contains(core, Lit::positive(a)));
  EXPECT_TRUE(contains(core, Lit::negative(a)));
}

TEST(AssumptionCore, WalksPbReasonsAndDropsIrrelevantAssumptions) {
  // 2a + b + c >= 2: assuming ~b forces a (its coefficient exceeds the
  // remaining slack); the later ~a assumption then fails. The core must
  // be exactly {~a, ~b} — assumption ~c contributed nothing.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_pb(PbConstraint::at_least({{2, Lit::positive(a)},
                                   {1, Lit::positive(b)},
                                   {1, Lit::positive(c)}},
                                  2));
  CdclSolver solver(f);
  const std::vector<Lit> assume{Lit::negative(b), Lit::negative(c),
                                Lit::negative(a)};
  ASSERT_EQ(solver.solve(SolveBudget{}, assume), SolveResult::Unsat);
  const std::span<const Lit> core = solver.last_core();
  ASSERT_EQ(core.size(), 2u);
  EXPECT_TRUE(contains(core, Lit::negative(a)));
  EXPECT_TRUE(contains(core, Lit::negative(b)));
  EXPECT_FALSE(contains(core, Lit::negative(c)));
}

// ---- clone validity after assumption-Unsat ----

TEST(AssumptionClone, CloneAfterAssumptionUnsatStaysValid) {
  // solve() must leave no residual assumption state: a clone taken right
  // after Unsat-under-assumptions answers like a fresh solver, at 1 and
  // 4 portfolio threads.
  const Graph g = make_queen_graph(5, 5);
  const Formula formula =
      encode_k_coloring(g, 5, SbpOptions::nu_sc()).formula;
  for (const int threads : {1, 4}) {
    SolverConfig config = profile_config(SolverKind::PbsII);
    config.portfolio_threads = threads;
    const std::unique_ptr<SolverEngine> engine =
        make_solver_engine(formula, config);
    // Force an arbitrary vertex away from every color: Unsat under
    // assumptions, but the formula itself stays 5-colorable.
    std::vector<Lit> assume;
    for (int j = 0; j < 5; ++j) assume.push_back(Lit::negative(j));
    ASSERT_EQ(engine->solve(SolveBudget{}, assume), SolveResult::Unsat)
        << threads << " threads";
    EXPECT_FALSE(engine->last_core().empty());

    const std::unique_ptr<SolverEngine> clone = engine->clone();
    EXPECT_EQ(clone->solve(), SolveResult::Sat) << threads << " threads";
    EXPECT_TRUE(formula.satisfied_by(clone->model()));
    // The clone re-answers the assumption query too.
    EXPECT_EQ(clone->solve(SolveBudget{}, assume), SolveResult::Unsat);
    // And the original engine is untouched by its clone's searches.
    EXPECT_EQ(engine->solve(), SolveResult::Sat) << threads << " threads";
  }
}

// ---- strategy equivalence on the optimizer suite ----

TEST(SearchStrategyEquivalence, QueenMycielOptimizerSuite) {
  struct Case {
    const char* name;
    Graph graph;
    int k;
    std::int64_t chi;
  };
  std::vector<Case> cases;
  cases.push_back({"queen5", make_queen_graph(5, 5), 7, 5});
  cases.push_back({"myciel3", make_myciel_dimacs(3), 8, 4});
  cases.push_back({"myciel4", make_myciel_dimacs(4), 8, 5});
  for (const Case& c : cases) {
    const ColoringEncoding enc =
        encode_coloring(c.graph, c.k, SbpOptions::nu_sc());
    for (const int threads : {1, 2}) {
      SolverConfig config = profile_config(SolverKind::PbsII);
      config.portfolio_threads = threads;
      for (const SearchStrategy strategy :
           {SearchStrategy::Linear, SearchStrategy::Binary,
            SearchStrategy::CoreGuided}) {
        const OptResult r =
            minimize(enc.formula, config, SolveBudget{}, strategy);
        ASSERT_EQ(r.status, OptStatus::Optimal)
            << c.name << " " << search_strategy_name(strategy) << " "
            << threads << " threads";
        EXPECT_EQ(r.best_value, c.chi)
            << c.name << " " << search_strategy_name(strategy) << " "
            << threads << " threads";
        EXPECT_TRUE(enc.formula.satisfied_by(r.model));
        EXPECT_GE(r.probes, 2) << "an optimum needs at least SAT + UNSAT";
      }
    }
  }
}

TEST(SearchStrategyEquivalence, InfeasibleAndUnconstrainedEdges) {
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    // Infeasible constraints are reported as such with an empty model.
    Formula inf;
    const Var a = inf.new_var();
    inf.add_unit(Lit::positive(a));
    inf.add_unit(Lit::negative(a));
    Objective obj;
    obj.terms.push_back({1, Lit::positive(a)});
    inf.set_objective(obj);
    const OptResult r = minimize(inf, {}, SolveBudget{}, strategy);
    EXPECT_EQ(r.status, OptStatus::Infeasible)
        << search_strategy_name(strategy);

    // A free objective bottoms out at zero.
    Formula free;
    Objective fobj;
    for (int i = 0; i < 4; ++i) {
      fobj.terms.push_back({1, Lit::positive(free.new_var())});
    }
    free.set_objective(fobj);
    const OptResult z = minimize(free, {}, SolveBudget{}, strategy);
    EXPECT_EQ(z.status, OptStatus::Optimal) << search_strategy_name(strategy);
    EXPECT_EQ(z.best_value, 0) << search_strategy_name(strategy);
  }
}

TEST(SearchStrategyEquivalence, ModelCoversOriginalVariablesOnly) {
  // The selector ladder's auxiliaries are internal: the surfaced model is
  // indexed by the caller's formula, exactly.
  Formula f;
  std::vector<Lit> lits;
  Objective obj;
  for (int i = 0; i < 5; ++i) {
    const Var v = f.new_var();
    lits.push_back(Lit::positive(v));
    obj.terms.push_back({1, Lit::positive(v)});
  }
  f.add_at_least(lits, 2);
  f.set_objective(obj);
  for (const SearchStrategy strategy :
       {SearchStrategy::Linear, SearchStrategy::Binary,
        SearchStrategy::CoreGuided}) {
    const OptResult r = minimize(f, {}, SolveBudget{}, strategy);
    ASSERT_EQ(r.status, OptStatus::Optimal);
    EXPECT_EQ(r.best_value, 2);
    EXPECT_EQ(r.model.size(), static_cast<std::size_t>(f.num_vars()));
    EXPECT_TRUE(f.satisfied_by(r.model));
  }
}

}  // namespace
}  // namespace symcolor
