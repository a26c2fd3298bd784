#include "cnf/pb_to_cnf.h"

#include <algorithm>
#include <map>
#include <span>
#include <vector>

namespace symcolor {
namespace {

void add_pairwise_amo(Formula& formula, std::span<const Lit> lits) {
  for (std::size_t a = 0; a < lits.size(); ++a) {
    for (std::size_t b = a + 1; b < lits.size(); ++b) {
      formula.add_clause({~lits[a], ~lits[b]});
    }
  }
}

/// Sinz sequential counter for "at most `bound` of `lits`".
PbToCnfStats sequential_at_most(Formula& formula, const std::vector<Lit>& lits,
                                int bound) {
  PbToCnfStats stats;
  const int n = static_cast<int>(lits.size());
  const int vars_before = formula.num_vars();
  const int clauses_before = formula.num_clauses();
  if (bound < 0) {
    formula.add_clause({});
    stats.clauses = formula.num_clauses() - clauses_before;
    return stats;
  }
  if (bound == 0) {
    for (const Lit l : lits) formula.add_unit(~l);
    stats.clauses = formula.num_clauses() - clauses_before;
    return stats;
  }
  if (bound >= n) return stats;  // trivially satisfied

  // s(i, j): at least j+1 of lits[0..i] are true (j is 0-based here).
  auto s = [&, first = formula.new_vars(n * bound)](int i, int j) {
    return Lit::positive(first + i * bound + j);
  };
  formula.add_implication(lits[0], s(0, 0));
  for (int j = 1; j < bound; ++j) formula.add_unit(~s(0, j));
  for (int i = 1; i < n; ++i) {
    formula.add_implication(lits[static_cast<std::size_t>(i)], s(i, 0));
    formula.add_implication(s(i - 1, 0), s(i, 0));
    for (int j = 1; j < bound; ++j) {
      formula.add_clause(
          {~lits[static_cast<std::size_t>(i)], ~s(i - 1, j - 1), s(i, j)});
      formula.add_implication(s(i - 1, j), s(i, j));
    }
    // Overflow: the (bound+1)-th true literal is forbidden.
    formula.add_clause({~lits[static_cast<std::size_t>(i)], ~s(i - 1, bound - 1)});
  }
  stats.aux_vars = formula.num_vars() - vars_before;
  stats.clauses = formula.num_clauses() - clauses_before;
  return stats;
}

/// Tseitin-encoded BDD for a general "sum a_i l_i >= bound" constraint.
class BddEncoder {
 public:
  BddEncoder(Formula& formula, std::vector<PbTerm> terms, std::int64_t bound)
      : formula_(formula), terms_(std::move(terms)), bound_(bound) {
    suffix_sum_.resize(terms_.size() + 1, 0);
    for (std::size_t i = terms_.size(); i-- > 0;) {
      suffix_sum_[i] = suffix_sum_[i + 1] + terms_[i].coeff;
    }
  }

  PbToCnfStats run() {
    const int vars_before = formula_.num_vars();
    const int clauses_before = formula_.num_clauses();
    const Node root = build(0, bound_);
    if (root.kind == NodeKind::False) {
      formula_.add_clause({});
    } else if (root.kind == NodeKind::Var) {
      formula_.add_unit(root.lit);
    }  // True: nothing to assert
    PbToCnfStats stats;
    stats.aux_vars = formula_.num_vars() - vars_before;
    stats.clauses = formula_.num_clauses() - clauses_before;
    return stats;
  }

 private:
  enum class NodeKind { False, True, Var };
  struct Node {
    NodeKind kind = NodeKind::False;
    Lit lit;  // valid when kind == Var
  };

  Node build(std::size_t index, std::int64_t needed) {
    if (needed <= 0) return {NodeKind::True, kUndefLit};
    if (suffix_sum_[index] < needed) return {NodeKind::False, kUndefLit};
    const auto key = std::pair{index, needed};
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;

    const Lit branch = terms_[index].lit;
    const Node hi = build(index + 1, needed - terms_[index].coeff);
    const Node lo = build(index + 1, needed);
    const Node result = materialize(branch, hi, lo);
    memo_.emplace(key, result);
    return result;
  }

  /// Encode t <-> ITE(branch, hi, lo) with constant simplification.
  Node materialize(Lit branch, const Node& hi, const Node& lo) {
    if (hi.kind == lo.kind && hi.kind != NodeKind::Var) return hi;
    if (hi.kind == NodeKind::Var && lo.kind == NodeKind::Var &&
        hi.lit == lo.lit) {
      return hi;
    }
    const Lit t = Lit::positive(formula_.new_var());
    // branch-true side.
    switch (hi.kind) {
      case NodeKind::True:
        formula_.add_clause({~branch, t});
        break;
      case NodeKind::False:
        formula_.add_clause({~branch, ~t});
        break;
      case NodeKind::Var:
        formula_.add_clause({~branch, ~t, hi.lit});
        formula_.add_clause({~branch, t, ~hi.lit});
        break;
    }
    // branch-false side.
    switch (lo.kind) {
      case NodeKind::True:
        formula_.add_clause({branch, t});
        break;
      case NodeKind::False:
        formula_.add_clause({branch, ~t});
        break;
      case NodeKind::Var:
        formula_.add_clause({branch, ~t, lo.lit});
        formula_.add_clause({branch, t, ~lo.lit});
        break;
    }
    return {NodeKind::Var, t};
  }

  Formula& formula_;
  std::vector<PbTerm> terms_;
  std::int64_t bound_;
  std::vector<std::int64_t> suffix_sum_;
  std::map<std::pair<std::size_t, std::int64_t>, Node> memo_;
};

}  // namespace

PbToCnfStats encode_at_most_one(Formula& formula, std::vector<Lit> lits) {
  const int vars_before = formula.num_vars();
  const int clauses_before = formula.num_clauses();
  // Groups of three with one commander each; recurse on the commanders.
  constexpr std::size_t kGroup = 3;
  while (lits.size() > kGroup) {
    std::vector<Lit> commanders;
    for (std::size_t start = 0; start < lits.size(); start += kGroup) {
      const std::size_t end = std::min(start + kGroup, lits.size());
      const std::span<const Lit> group(lits.data() + start, end - start);
      if (group.size() == 1) {
        commanders.push_back(group[0]);
        continue;
      }
      const Lit commander = Lit::positive(formula.new_var());
      add_pairwise_amo(formula, group);
      // Any group member implies its commander; a false commander
      // silences the whole group.
      for (const Lit l : group) formula.add_implication(l, commander);
      commanders.push_back(commander);
    }
    lits = std::move(commanders);
  }
  add_pairwise_amo(formula, lits);
  return {formula.num_vars() - vars_before,
          formula.num_clauses() - clauses_before};
}

PbToCnfStats encode_cardinality_at_most(Formula& formula,
                                        const std::vector<Lit>& lits,
                                        int bound) {
  return sequential_at_most(formula, lits, bound);
}

PbToCnfStats encode_cardinality_at_least(Formula& formula,
                                         const std::vector<Lit>& lits,
                                         int bound) {
  if (bound <= 0) return {};
  // at-least-k(x) == at-most-(n-k)(~x).
  std::vector<Lit> negated;
  negated.reserve(lits.size());
  for (const Lit l : lits) negated.push_back(~l);
  return sequential_at_most(formula, negated,
                            static_cast<int>(lits.size()) - bound);
}

PbToCnfStats encode_pb_as_cnf(Formula& formula, const PbConstraint& pb) {
  if (pb.is_tautology()) return {};
  if (pb.is_clause()) {
    std::vector<Lit> clause;
    for (const PbTerm& t : pb.terms()) clause.push_back(t.lit);
    const int before = formula.num_clauses();
    formula.add_clause(clause);
    return {0, formula.num_clauses() - before};
  }
  if (pb.is_cardinality()) {
    std::vector<Lit> lits;
    for (const PbTerm& t : pb.terms()) lits.push_back(t.lit);
    return encode_cardinality_at_least(formula, lits,
                                       static_cast<int>(pb.bound()));
  }
  BddEncoder encoder(formula, {pb.terms().begin(), pb.terms().end()},
                     pb.bound());
  return encoder.run();
}

Formula to_pure_cnf(const Formula& formula, PbToCnfStats* stats) {
  Formula cnf;
  cnf.new_vars(formula.num_vars());
  for (std::span<const Lit> clause : formula.clauses()) cnf.add_clause(clause);
  PbToCnfStats total;
  for (const PbConstraint& pb : formula.pb_constraints()) {
    const PbToCnfStats s = encode_pb_as_cnf(cnf, pb);
    total.aux_vars += s.aux_vars;
    total.clauses += s.clauses;
  }
  if (formula.objective()) cnf.set_objective(*formula.objective());
  if (stats != nullptr) *stats = total;
  return cnf;
}

}  // namespace symcolor
