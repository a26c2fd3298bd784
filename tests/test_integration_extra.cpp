// Additional integration coverage: weighted-coefficient formula graphs,
// clause-database reduction under heavy conflict load, cross-module
// pipelines (shatter + solve), and stress variants.

#include <gtest/gtest.h>

#include <cmath>

#include "automorphism/group.h"
#include "cnf/writers.h"
#include "coloring/exact_colorer.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "sat/cdcl.h"
#include "symmetry/formula_graph.h"
#include "symmetry/shatter.h"

namespace symcolor {
namespace {

Formula pigeonhole(int pigeons, int holes) {
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

TEST(FormulaGraphWeighted, CoefficientVerticesCreated) {
  Formula f;
  f.new_vars(4);
  f.add_pb(PbConstraint::at_least({{3, Lit::positive(0)},
                                   {3, Lit::positive(1)},
                                   {1, Lit::positive(2)},
                                   {1, Lit::positive(3)}},
                                  4));
  const FormulaGraph fg = build_formula_graph(f);
  // 8 literal vertices + 1 constraint vertex + 2 coefficient-group
  // vertices (coeff 3 and coeff 1).
  EXPECT_EQ(fg.graph.num_vertices(), 11);
}

TEST(FormulaGraphWeighted, EqualCoeffVarsSymmetric) {
  // Variables with equal coefficients may swap; across groups they may
  // not. Group = <swap(0,1)> x <swap(2,3)>: order 4.
  Formula f;
  f.new_vars(4);
  f.add_pb(PbConstraint::at_least({{3, Lit::positive(0)},
                                   {3, Lit::positive(1)},
                                   {1, Lit::positive(2)},
                                   {1, Lit::positive(3)}},
                                  4));
  const SymmetryInfo info = detect_symmetries(f);
  EXPECT_NEAR(info.log10_order, std::log10(4.0), 1e-6);
  for (const Perm& p : info.generators) {
    EXPECT_TRUE(is_formula_symmetry(f, p));
  }
}

TEST(FormulaGraphWeighted, WeightedObjectiveSplitsGroups) {
  Formula f;
  f.new_vars(3);
  Objective obj;
  obj.terms = {{2, Lit::positive(0)}, {2, Lit::positive(1)},
               {5, Lit::positive(2)}};
  f.set_objective(obj);
  const SymmetryInfo info = detect_symmetries(f);
  for (const Perm& p : info.generators) {
    // var2 (weight 5) can never map onto var0/var1 (weight 2).
    EXPECT_EQ(p[static_cast<std::size_t>(Lit::positive(2).code())],
              Lit::positive(2).code());
  }
}

TEST(CdclStress, ClauseDatabaseReductionTriggered) {
  // PHP(8,7) produces thousands of learned clauses, forcing at least one
  // reduce_db sweep; the result must still be UNSAT.
  CdclSolver solver(pigeonhole(8, 7));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
  EXPECT_GT(solver.stats().learned_clauses, 1000);
}

TEST(CdclStress, RepeatedSolveCallsStayConsistent) {
  Formula f = pigeonhole(5, 5);
  CdclSolver solver(f);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(solver.solve(), SolveResult::Sat);
    EXPECT_TRUE(f.satisfied_by(solver.model()));
  }
}

TEST(CdclStress, AssumptionsAfterLearnedClauses) {
  // Learn from a hard phase, then query with assumptions.
  Formula f = pigeonhole(5, 5);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  // Force pigeon 0 out of every hole: unsatisfiable under assumptions.
  std::vector<Lit> assume;
  for (int h = 0; h < 5; ++h) assume.push_back(Lit::negative(h));
  EXPECT_EQ(solver.solve({}, assume), SolveResult::Unsat);
  // And satisfiable again without them.
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(PipelineCombos, ShatterPlusSolve) {
  const Graph g = make_myciel_dimacs(4);
  ColoringOptions options;
  options.max_colors = 7;
  options.sbps = SbpOptions::sc_only();
  options.instance_dependent_sbps = true;
  const ColoringOutcome r = solve_coloring(g, options);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 5);
}

TEST(PipelineCombos, EverySbpRowFindsTheOptimum) {
  const Graph g = make_queen_graph(4, 4);
  for (const SbpOptions& sbps : paper_sbp_rows()) {
    ColoringOptions options;
    options.max_colors = 6;
    options.sbps = sbps;
    const ColoringOutcome r = solve_coloring(g, options);
    ASSERT_EQ(r.status, OptStatus::Optimal) << sbps.label();
    EXPECT_EQ(r.num_colors, 5) << sbps.label();
  }
}

TEST(PipelineCombos, OpbExportRoundTripSolvesSame) {
  const Graph g = make_myciel_dimacs(3);
  const ColoringEncoding enc = encode_coloring(g, 6, SbpOptions::nu_only());
  const Formula reread = read_opb_string(write_opb_string(enc.formula));
  const OptResult a = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  const OptResult b = minimize(reread, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(a.status, OptStatus::Optimal);
  ASSERT_EQ(b.status, OptStatus::Optimal);
  EXPECT_EQ(a.best_value, b.best_value);
}

TEST(PipelineCombos, ShatterGeneratorsFormAGroupConsistentWithOrder) {
  // Schreier-Sims on the literal permutations must reproduce at least
  // the order the graph search reported (equal when detection completed).
  Formula f;
  f.new_vars(5);
  std::vector<Lit> lits;
  for (int i = 0; i < 5; ++i) lits.push_back(Lit::positive(i));
  f.add_exactly(lits, 2);
  const SymmetryInfo info = detect_symmetries(f);
  ASSERT_TRUE(info.complete);
  PermGroup group(2 * f.num_vars());
  for (const Perm& p : info.generators) group.add_generator(p);
  EXPECT_NEAR(group.log10_order(), info.log10_order, 1e-6);
}

TEST(PipelineCombos, DeepQueenInstanceEndToEnd) {
  // queen7_7 through the complete flow: encode + NU+SC + shatter +
  // solve, checked against the known chromatic number 7.
  ColoringOptions options;
  options.max_colors = 9;
  options.sbps = SbpOptions::nu_sc();
  options.instance_dependent_sbps = true;
  options.time_budget_seconds = 30.0;
  const ColoringOutcome r = solve_coloring(make_queen_graph(7, 7), options);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.num_colors, 7);
}

TEST(GeneratorEdgeCases, MycielskiRejectsBadIndex) {
  EXPECT_THROW((void)make_mycielski(1), std::invalid_argument);
}

TEST(GeneratorEdgeCases, PartiteBuilderRejectsTinyTargets) {
  EXPECT_THROW((void)make_book_graph(20, 5, 8, 1), std::invalid_argument);
  EXPECT_THROW((void)make_register_graph(20, 3, 8, 1), std::invalid_argument);
}

TEST(GeneratorEdgeCases, GeometricSmall) {
  const Graph g = make_geometric_graph(4, 3, 9);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_GE(g.num_edges(), 1);
}

}  // namespace
}  // namespace symcolor
