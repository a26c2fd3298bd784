// Tests for the pre-solve simplifier: root propagation, pure literals,
// subsumption, model-set preservation, and the per-constraint root
// reduction helpers the propagation round is built on.

#include <gtest/gtest.h>

#include <vector>

#include "cnf/pb_constraint.h"
#include "cnf/simplify.h"
#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "sat/cdcl.h"
#include "util/rng.h"

namespace symcolor {
namespace {

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

TEST(Simplify, UnitChainCollapses) {
  Formula f;
  const Var first = f.new_vars(5);
  f.add_unit(Lit::positive(first));
  for (int i = 0; i + 1 < 5; ++i) {
    f.add_implication(Lit::positive(first + i), Lit::positive(first + i + 1));
  }
  SimplifyStats stats;
  const Formula out = simplify(f, &stats);
  EXPECT_EQ(stats.fixed_variables, 5);
  // All five variables survive as units; nothing else remains.
  EXPECT_EQ(out.num_clauses(), 5);
  for (const Clause& c : out.clauses()) EXPECT_EQ(c.size(), 1u);
}

TEST(Simplify, RootConflictDetected) {
  Formula f;
  const Var v = f.new_var();
  f.add_unit(Lit::positive(v));
  f.add_unit(Lit::negative(v));
  SimplifyStats stats;
  const Formula out = simplify(f, &stats);
  EXPECT_TRUE(stats.unsatisfiable);
  EXPECT_TRUE(out.trivially_unsat());
}

TEST(Simplify, PureLiteralFixed) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_clause({Lit::positive(a), Lit::negative(b)});
  SimplifyStats stats;
  const Formula out = simplify(f, &stats);
  // `a` appears only positively: fixed true, which satisfies everything.
  EXPECT_EQ(stats.pure_literals, 1);
  CdclSolver solver(out);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(a)], LBool::True);
}

TEST(Simplify, ObjectiveVariablesNeverPureFixed) {
  Formula f;
  const Var a = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(f.new_var())});
  Objective obj;
  obj.terms = {{1, Lit::positive(a)}};
  f.set_objective(obj);
  SimplifyStats stats;
  const Formula out = simplify(f, &stats);
  // Fixing `a` true would be pure but would cost objective value.
  const OptResult r = minimize(out, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 0);
}

TEST(Simplify, SubsumedClauseRemoved) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_clause({Lit::positive(a), Lit::positive(b), Lit::positive(c)});
  SimplifyStats stats;
  SimplifyOptions options;
  options.pure_literals = false;  // keep both clauses alive for the check
  const Formula out = simplify(f, &stats, options);
  EXPECT_EQ(out.num_clauses(), 1);
  EXPECT_EQ(stats.removed_clauses, 1);
}

TEST(Simplify, PbForcedLiterals) {
  // 3a + b + c >= 4 forces a at the root.
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_pb(PbConstraint::at_least(
      {{3, Lit::positive(a)}, {1, Lit::positive(b)}, {1, Lit::positive(c)}}, 4));
  SimplifyStats stats;
  const Formula out = simplify(f, &stats);
  EXPECT_GE(stats.fixed_variables, 1);
  CdclSolver solver(out);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_EQ(solver.model()[static_cast<std::size_t>(a)], LBool::True);
}

TEST(Simplify, PbReducedToClauseMigrates) {
  // a + b + c >= 2 with a fixed false becomes clause (b | c).
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_unit(Lit::negative(a));
  f.add_at_least({Lit::positive(a), Lit::positive(b), Lit::positive(c)}, 2);
  SimplifyStats stats;
  SimplifyOptions options;
  options.pure_literals = false;
  const Formula out = simplify(f, &stats, options);
  EXPECT_EQ(out.num_pb(), 0);
  EXPECT_GE(stats.removed_pb, 1);
}

TEST(Simplify, PreservesSatisfiabilityRandom) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const int vars = 8;
    Formula f;
    f.new_vars(vars);
    for (int c = 0; c < 18; ++c) {
      Clause clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < len; ++i) {
        clause.push_back(
            Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
      }
      f.add_clause(std::move(clause));
    }
    const Formula out = simplify(f);
    EXPECT_EQ(brute_force_sat(f), brute_force_sat(out)) << "trial " << trial;
  }
}

TEST(Simplify, PreservesColoringOptimum) {
  const Graph g = make_myciel_dimacs(3);
  const ColoringEncoding enc = encode_coloring(g, 6, SbpOptions::nu_sc());
  SimplifyStats stats;
  const Formula out = simplify(enc.formula, &stats);
  const OptResult plain = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  const OptResult simplified = minimize(out, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(plain.status, OptStatus::Optimal);
  ASSERT_EQ(simplified.status, OptStatus::Optimal);
  EXPECT_EQ(plain.best_value, simplified.best_value);
  // SC's unit pins must have propagated away some edge clauses.
  EXPECT_GT(stats.fixed_variables + stats.removed_clauses, 0);
}

TEST(Simplify, IdempotentOnFixpoint) {
  const Graph g = make_myciel_dimacs(3);
  const ColoringEncoding enc = encode_coloring(g, 4, SbpOptions::sc_only());
  const Formula once = simplify(enc.formula);
  SimplifyStats stats;
  const Formula twice = simplify(once, &stats);
  EXPECT_EQ(once.num_clauses(), twice.num_clauses());
  EXPECT_EQ(once.num_pb(), twice.num_pb());
}

TEST(Simplify, WidthCapSkipsLongClauses) {
  Formula f;
  f.new_vars(16);
  Clause longer;
  Clause shorter;
  for (int i = 0; i < 15; ++i) longer.push_back(Lit::positive(i));
  for (int i = 0; i < 14; ++i) shorter.push_back(Lit::positive(i));
  f.add_clause(longer);
  f.add_clause(shorter);
  SimplifyOptions options;
  options.pure_literals = false;
  options.max_subsumption_width = 4;  // shorter clause exceeds the cap
  SimplifyStats stats;
  const Formula out = simplify(f, &stats, options);
  EXPECT_EQ(out.num_clauses(), 2);  // no subsumption attempted
}


// ---- root reduction of one constraint ----

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

}  // namespace
}  // namespace symcolor
