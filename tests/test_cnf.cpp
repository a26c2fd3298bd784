// Tests for literals, PB constraint normalization, Formula, and the
// DIMACS-CNF / OPB writers.

#include <gtest/gtest.h>

#include <iterator>
#include <ranges>
#include <utility>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "cnf/pb_constraint.h"
#include "cnf/writers.h"

namespace symcolor {
namespace {

TEST(Lit, CodePacking) {
  const Lit p = Lit::positive(3);
  const Lit n = Lit::negative(3);
  EXPECT_EQ(p.var(), 3);
  EXPECT_FALSE(p.negated());
  EXPECT_EQ(n.var(), 3);
  EXPECT_TRUE(n.negated());
  EXPECT_EQ(p.code(), 6);
  EXPECT_EQ(n.code(), 7);
}

TEST(Lit, Complement) {
  const Lit p = Lit::positive(5);
  EXPECT_EQ(~p, Lit::negative(5));
  EXPECT_EQ(~~p, p);
}

TEST(Lit, UndefInvalid) {
  EXPECT_FALSE(kUndefLit.valid());
  EXPECT_TRUE(Lit::positive(0).valid());
}

TEST(Lit, FromCodeRoundTrip) {
  for (int code = 0; code < 10; ++code) {
    EXPECT_EQ(Lit::from_code(code).code(), code);
  }
}

TEST(Lit, ValueSemantics) {
  EXPECT_EQ(lit_value(LBool::True, false), LBool::True);
  EXPECT_EQ(lit_value(LBool::True, true), LBool::False);
  EXPECT_EQ(lit_value(LBool::False, true), LBool::True);
  EXPECT_EQ(lit_value(LBool::Undef, false), LBool::Undef);
  EXPECT_EQ(lit_value(LBool::Undef, true), LBool::Undef);
}

TEST(PbConstraint, AtLeastKeepsPositiveTerms) {
  const auto c = PbConstraint::at_least(
      {{2, Lit::positive(0)}, {3, Lit::positive(1)}}, 2);
  EXPECT_EQ(c.bound(), 2);
  EXPECT_EQ(c.terms().size(), 2u);
  EXPECT_EQ(c.coeff_sum(), 4);  // saturation caps 3 at the bound 2
}

TEST(PbConstraint, SaturationCapsCoefficients) {
  const auto c = PbConstraint::at_least({{100, Lit::positive(0)}}, 1);
  EXPECT_EQ(c.terms()[0].coeff, 1);
  EXPECT_TRUE(c.is_clause());
}

TEST(PbConstraint, NegativeCoefficientRewritten) {
  // -2*x0 >= -1  <=>  2*~x0 >= 1  (bound shifted by 2, saturated to 1).
  const auto c = PbConstraint::at_least({{-2, Lit::positive(0)}}, -1);
  ASSERT_EQ(c.terms().size(), 1u);
  EXPECT_EQ(c.terms()[0].lit, Lit::negative(0));
  EXPECT_EQ(c.bound(), 1);
}

TEST(PbConstraint, AtMostFlipsToAtLeast) {
  // x0 + x1 <= 1  <=>  ~x0 + ~x1 >= 1.
  const auto c = PbConstraint::at_most(
      {{1, Lit::positive(0)}, {1, Lit::positive(1)}}, 1);
  EXPECT_EQ(c.bound(), 1);
  for (const PbTerm& t : c.terms()) EXPECT_TRUE(t.lit.negated());
}

TEST(PbConstraint, DuplicateLiteralsMerge) {
  const auto c = PbConstraint::at_least(
      {{1, Lit::positive(0)}, {2, Lit::positive(0)}}, 3);
  ASSERT_EQ(c.terms().size(), 1u);
  EXPECT_EQ(c.terms()[0].coeff, 3);
}

TEST(PbConstraint, OpposingLiteralsCancel) {
  // 2*x0 + 1*~x0 >= 1  <=>  x0 + 1 >= 1  <=>  x0 >= 0: tautology.
  const auto c = PbConstraint::at_least(
      {{2, Lit::positive(0)}, {1, Lit::negative(0)}}, 1);
  EXPECT_TRUE(c.is_tautology());
}

TEST(PbConstraint, ContradictionDetected) {
  const auto c = PbConstraint::at_least({{1, Lit::positive(0)}}, 2);
  EXPECT_TRUE(c.is_contradiction());
}

TEST(PbConstraint, CardinalityAndClauseFlags) {
  const auto card = PbConstraint::at_least(
      {{1, Lit::positive(0)}, {1, Lit::positive(1)}, {1, Lit::positive(2)}}, 2);
  EXPECT_TRUE(card.is_cardinality());
  EXPECT_FALSE(card.is_clause());
  const auto clause = PbConstraint::at_least(
      {{1, Lit::positive(0)}, {1, Lit::positive(1)}}, 1);
  EXPECT_TRUE(clause.is_clause());
}

TEST(PbConstraint, TermsSortedDescendingCoeff) {
  const auto c = PbConstraint::at_least(
      {{1, Lit::positive(0)}, {3, Lit::positive(1)}, {2, Lit::positive(2)}}, 4);
  EXPECT_GE(c.terms()[0].coeff, c.terms()[1].coeff);
  EXPECT_GE(c.terms()[1].coeff, c.terms()[2].coeff);
}

TEST(PbConstraint, SatisfiedByEvaluation) {
  const auto c = PbConstraint::at_least(
      {{1, Lit::positive(0)}, {1, Lit::positive(1)}}, 1);
  std::vector<LBool> vals{LBool::True, LBool::False};
  EXPECT_TRUE(c.satisfied_by(vals));
  vals[0] = LBool::False;
  EXPECT_FALSE(c.satisfied_by(vals));
}

TEST(PbConstraint, EqualityAfterCanonicalization) {
  const auto a = PbConstraint::at_least(
      {{1, Lit::positive(0)}, {1, Lit::positive(1)}}, 1);
  const auto b = PbConstraint::at_least(
      {{1, Lit::positive(1)}, {1, Lit::positive(0)}}, 1);
  EXPECT_EQ(a, b);
}

TEST(Formula, NewVarsSequential) {
  Formula f;
  EXPECT_EQ(f.new_var(), 0);
  EXPECT_EQ(f.new_var(), 1);
  EXPECT_EQ(f.new_vars(3), 2);
  EXPECT_EQ(f.num_vars(), 5);
}

TEST(Formula, TautologicalClauseDropped) {
  Formula f;
  const Var v = f.new_var();
  f.add_clause({Lit::positive(v), Lit::negative(v)});
  EXPECT_EQ(f.num_clauses(), 0);
}

TEST(Formula, DuplicateLiteralsMergedInClause) {
  Formula f;
  const Var v = f.new_var();
  const Var w = f.new_var();
  f.add_clause({Lit::positive(v), Lit::positive(v), Lit::positive(w)});
  ASSERT_EQ(f.num_clauses(), 1);
  EXPECT_EQ(f.clauses()[0].size(), 2u);
}

TEST(Formula, EmptyClauseMakesTriviallyUnsat) {
  Formula f;
  f.add_clause({});
  EXPECT_TRUE(f.trivially_unsat());
}

// ---- the flat clause store ----

static_assert(std::random_access_iterator<ClauseView::iterator>);
static_assert(std::ranges::random_access_range<ClauseView>);

std::vector<Lit> as_vector(std::span<const Lit> clause) {
  return {clause.begin(), clause.end()};
}

TEST(FormulaStore, TautologyLeavesCountAndPoolUnchanged) {
  Formula f;
  f.new_vars(3);
  f.add_clause({Lit::positive(0), Lit::negative(2)});
  f.add_clause({Lit::positive(1), Lit::positive(2), Lit::negative(1)});
  EXPECT_EQ(f.num_clauses(), 1);
  EXPECT_EQ(f.num_clause_lits(), 2u);
  EXPECT_EQ(as_vector(f.clauses()[0]),
            (std::vector<Lit>{Lit::positive(0), Lit::negative(2)}));
}

TEST(FormulaStore, DuplicatesMergeIntoOneSortedClause) {
  Formula f;
  f.new_vars(4);
  f.add_clause({Lit::negative(3), Lit::positive(1), Lit::negative(3),
                Lit::positive(0), Lit::positive(1)});
  ASSERT_EQ(f.num_clauses(), 1);
  EXPECT_EQ(f.num_clause_lits(), 3u);
  EXPECT_EQ(as_vector(f.clauses()[0]),
            (std::vector<Lit>{Lit::positive(0), Lit::positive(1),
                              Lit::negative(3)}));
}

TEST(FormulaStore, EmptyClauseIsStoredAndMakesTriviallyUnsat) {
  Formula f;
  f.new_var();
  f.add_clause({Lit::positive(0)});
  EXPECT_FALSE(f.trivially_unsat());
  f.add_clause({});
  EXPECT_TRUE(f.trivially_unsat());
  ASSERT_EQ(f.num_clauses(), 2);
  EXPECT_TRUE(f.clauses()[1].empty());
  EXPECT_EQ(f.clauses()[0].size(), 1u);
}

TEST(FormulaStore, ViewIterationEqualsIndexAccess) {
  Formula f;
  f.new_vars(6);
  for (int i = 0; i < 6; ++i) {
    std::vector<Lit> clause;
    for (int v = 0; v <= i; ++v) clause.push_back(Lit(v, (v + i) % 2 == 1));
    f.add_clause(clause);
  }
  const ClauseView view = f.clauses();
  ASSERT_EQ(view.size(), 6u);
  std::size_t i = 0;
  for (std::span<const Lit> clause : view) {
    EXPECT_EQ(clause.data(), view[i].data());
    EXPECT_EQ(clause.size(), i + 1);
    ++i;
  }
  EXPECT_EQ(i, view.size());
  EXPECT_EQ(view.end() - view.begin(), 6);
  EXPECT_EQ(view.begin()[4].size(), 5u);
  EXPECT_EQ((*(view.end() - 1)).size(), 6u);
}

TEST(FormulaStore, AppendingAClauseOfTheSamePoolCopiesIt) {
  Formula f;
  f.new_vars(4);
  f.add_clause({Lit::negative(3), Lit::positive(1), Lit::positive(2)});
  const std::vector<Lit> first = as_vector(f.clauses()[0]);
  // Each append grows the pool by three literals, so some appends
  // reallocate it while reading their source out of it.
  for (int i = 0; i < 200; ++i) {
    f.add_clause(f.clauses()[0]);
    f.add_clause(f.clauses()[static_cast<std::size_t>(f.num_clauses() / 2)]);
  }
  ASSERT_EQ(f.num_clauses(), 401);
  for (std::span<const Lit> clause : f.clauses()) {
    EXPECT_EQ(as_vector(clause), first);
  }
}

TEST(FormulaStore, DefaultAndMovedFromFormulasHoldNoClause) {
  Formula empty;
  EXPECT_EQ(empty.num_clauses(), 0);
  EXPECT_TRUE(empty.clauses().empty());
  EXPECT_EQ(empty.clauses().begin(), empty.clauses().end());

  Formula f;
  f.new_vars(2);
  f.add_clause({Lit::positive(0), Lit::positive(1)});
  f.add_clause({Lit::negative(0)});
  Formula g = std::move(f);
  EXPECT_EQ(g.num_clauses(), 2);
  EXPECT_EQ(f.num_clauses(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(f.clauses().empty());
  Formula h;
  h = std::move(g);
  EXPECT_EQ(h.num_clauses(), 2);
  EXPECT_EQ(g.num_clauses(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(as_vector(h.clauses()[1]), std::vector<Lit>{Lit::negative(0)});
}

TEST(Formula, OutOfRangeLiteralThrows) {
  Formula f;
  f.new_var();
  EXPECT_THROW(f.add_clause({Lit::positive(5)}), std::out_of_range);
}

TEST(Formula, TautologicalPbDropped) {
  Formula f;
  const Var v = f.new_var();
  f.add_pb(PbConstraint::at_least({{1, Lit::positive(v)}}, 0));
  EXPECT_EQ(f.num_pb(), 0);
}

TEST(Formula, ExactlyAddsTwoConstraints) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_exactly({Lit::positive(a), Lit::positive(b)}, 1);
  EXPECT_EQ(f.num_pb(), 2);
}

TEST(Formula, SatisfiedByChecksEverything) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  f.add_clause({Lit::positive(a), Lit::positive(b)});
  f.add_at_most({Lit::positive(a), Lit::positive(b)}, 1);
  std::vector<LBool> one_true{LBool::True, LBool::False};
  EXPECT_TRUE(f.satisfied_by(one_true));
  std::vector<LBool> both_true{LBool::True, LBool::True};
  EXPECT_FALSE(f.satisfied_by(both_true));
  std::vector<LBool> none{LBool::False, LBool::False};
  EXPECT_FALSE(f.satisfied_by(none));
}

TEST(Objective, ValueCountsTrueTerms) {
  Objective obj;
  obj.terms = {{2, Lit::positive(0)}, {3, Lit::negative(1)}};
  std::vector<LBool> vals{LBool::True, LBool::False};
  EXPECT_EQ(obj.value(vals), 5);
  vals[1] = LBool::True;
  EXPECT_EQ(obj.value(vals), 2);
}

TEST(Writers, OpbRoundTripConstraints) {
  Formula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  const Var c = f.new_var();
  f.add_at_least({Lit::positive(a), Lit::negative(b), Lit::positive(c)}, 2);
  f.add_at_most({Lit::positive(a), Lit::positive(c)}, 1);
  Objective obj;
  obj.terms = {{1, Lit::positive(a)}, {1, Lit::positive(b)}};
  f.set_objective(obj);

  const Formula g = read_opb_string(write_opb_string(f));
  EXPECT_EQ(g.num_vars(), 3);
  ASSERT_TRUE(g.objective().has_value());
  EXPECT_EQ(g.objective()->terms.size(), 2u);
  // Same satisfying assignments on a few probes.
  for (int mask = 0; mask < 8; ++mask) {
    std::vector<LBool> vals(3);
    for (int i = 0; i < 3; ++i) {
      vals[static_cast<std::size_t>(i)] =
          (mask >> i) & 1 ? LBool::True : LBool::False;
    }
    EXPECT_EQ(f.satisfied_by(vals), g.satisfied_by(vals)) << "mask " << mask;
  }
}

TEST(Writers, OpbParsesEquality) {
  const Formula f = read_opb_string("+1 x1 +1 x2 = 1 ;\n");
  EXPECT_EQ(f.num_pb(), 2);
}

TEST(Writers, OpbRejectsGarbage) {
  EXPECT_THROW((void)read_opb_string("+1 q1 >= 1 ;\n"), std::runtime_error);
  EXPECT_THROW((void)read_opb_string("+1 x1 ;\n"), std::runtime_error);
}

}  // namespace
}  // namespace symcolor
