#include "symmetry/lexleader.h"

#include <vector>

namespace symcolor {
namespace {

/// Support of a literal permutation as variable indices, ascending: the
/// variables whose positive literal moves.
std::vector<Var> support_vars(const Perm& lit_perm) {
  std::vector<Var> vars;
  for (int code = 0; code < static_cast<int>(lit_perm.size()); code += 2) {
    if (lit_perm[static_cast<std::size_t>(code)] != code) {
      vars.push_back(code >> 1);
    }
  }
  return vars;
}

}  // namespace

LexLeaderStats add_lex_leader_sbps(Formula& formula,
                                   std::span<const Perm> literal_perms,
                                   int max_support) {
  LexLeaderStats stats;
  for (const Perm& pi : literal_perms) {
    std::vector<Var> vars = support_vars(pi);
    if (vars.empty()) continue;
    if (max_support > 0 && static_cast<int>(vars.size()) > max_support) {
      vars.resize(static_cast<std::size_t>(max_support));
    }
    ++stats.generators_used;

    const int before_clauses = formula.num_clauses();
    Lit prev_e = kUndefLit;  // e_0 == true is represented by "no literal"
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const Lit x = Lit::positive(vars[i]);
      const Lit y = Lit::from_code(pi[static_cast<std::size_t>(x.code())]);
      // e_{i-1} -> (x <= y)
      if (prev_e.valid()) {
        formula.add_clause({~x, y, ~prev_e});
      } else {
        formula.add_clause({~x, y});
      }

      if (i + 1 == vars.size()) break;  // no successor needs e_i
      const Lit e = Lit::positive(formula.new_var());
      ++stats.vars_added;
      // e_{i-1} /\ x /\ y -> e   and   e_{i-1} /\ ~x /\ ~y -> e.
      // (Tautological instances, e.g. phase-shift images y == ~x, are
      // dropped by Formula::add_clause; e then floats free, which is
      // sound: the prefix can never be equal past a phase-shifted
      // variable.)
      if (prev_e.valid()) {
        formula.add_clause({~x, ~y, e, ~prev_e});
        formula.add_clause({x, y, e, ~prev_e});
      } else {
        formula.add_clause({~x, ~y, e});
        formula.add_clause({x, y, e});
      }
      prev_e = e;
    }
    stats.clauses_added += formula.num_clauses() - before_clauses;
  }
  return stats;
}

LexLeaderStats add_lex_leader_sbps_quadratic(Formula& formula,
                                             std::span<const Perm> literal_perms,
                                             int max_support) {
  LexLeaderStats stats;
  for (const Perm& pi : literal_perms) {
    std::vector<Var> vars = support_vars(pi);
    if (vars.empty()) continue;
    if (max_support > 0 && static_cast<int>(vars.size()) > max_support) {
      vars.resize(static_cast<std::size_t>(max_support));
    }
    ++stats.generators_used;

    const int before_clauses = formula.num_clauses();
    // ~x_1 .. ~x_{i-1}, then this step's ~x_i and y_i: one buffer for
    // every clause of the generator.
    std::vector<Lit> clause;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const Lit x = Lit::positive(vars[i]);
      const Lit y = Lit::from_code(pi[static_cast<std::size_t>(x.code())]);
      clause.push_back(~x);
      clause.push_back(y);
      formula.add_clause(clause);
      clause.pop_back();  // ~x stays in the prefix
    }
    stats.clauses_added += formula.num_clauses() - before_clauses;
  }
  return stats;
}

}  // namespace symcolor
