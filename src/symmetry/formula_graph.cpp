#include "symmetry/formula_graph.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

namespace symcolor {
namespace {

constexpr int kLiteralColor = 0;
constexpr int kClauseColor = 1;
constexpr int kObjectiveColor = 2;
constexpr int kFirstDynamicColor = 3;

/// Builder that counts vertices first, then materializes the graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(const Formula& formula) : formula_(formula) {
    const int lits = 2 * formula.num_vars();
    next_vertex_ = lits;
    // Count extra vertices: one per clause of size >= 3, one per
    // non-clausal PB constraint (plus coefficient groups), objective.
    for (const Clause& c : formula.clauses()) {
      if (c.size() >= 3 || c.size() == 1) ++extra_;  // unit clauses get markers
    }
    for (const PbConstraint& pb : formula.pb_constraints()) {
      if (pb.is_clause()) {
        if (pb.terms().size() >= 3 || pb.terms().size() == 1) ++extra_;
      } else {
        ++extra_;
        extra_ += coeff_vertex_count(coeff_groups(pb));
      }
    }
    if (formula.objective()) {
      ++extra_;
      extra_ += coeff_vertex_count(
          term_coeff_groups(formula.objective()->terms));
    }
  }

  FormulaGraph build() {
    FormulaGraph fg;
    const int lits = 2 * formula_.num_vars();
    fg.num_literal_vertices = lits;
    fg.graph.reset(lits + extra_);
    fg.vertex_colors.assign(static_cast<std::size_t>(lits + extra_),
                            kLiteralColor);
    graph_ = &fg.graph;
    colors_ = &fg.vertex_colors;

    // Boolean consistency edges.
    for (Var v = 0; v < formula_.num_vars(); ++v) {
      graph_->add_edge(Lit::positive(v).code(), Lit::negative(v).code());
    }
    for (const Clause& c : formula_.clauses()) add_clause_structure(c);
    for (const PbConstraint& pb : formula_.pb_constraints()) {
      if (pb.is_clause()) {
        Clause c;
        for (const PbTerm& t : pb.terms()) c.push_back(t.lit);
        add_clause_structure(c);
      } else {
        add_pb_structure(pb);
      }
    }
    if (formula_.objective()) add_objective_structure(*formula_.objective());
    // Every counted slot must have been used: leftover default-colored
    // vertices would masquerade as interchangeable literals and inject
    // spurious symmetries.
    assert(next_vertex_ == lits + extra_);
    fg.graph.finalize();
    return fg;
  }

 private:
  /// Terms grouped by coefficient value, keyed ascending.
  static std::map<std::int64_t, std::vector<Lit>> term_coeff_groups(
      std::span<const PbTerm> terms) {
    std::map<std::int64_t, std::vector<Lit>> groups;
    for (const PbTerm& t : terms) groups[t.coeff].push_back(t.lit);
    return groups;
  }
  static std::map<std::int64_t, std::vector<Lit>> coeff_groups(
      const PbConstraint& pb) {
    return term_coeff_groups(pb.terms());
  }

  /// Number of intermediate coefficient vertices the build step will
  /// create: none when all coefficients are 1 (terms attach directly).
  static int coeff_vertex_count(
      const std::map<std::int64_t, std::vector<Lit>>& groups) {
    if (groups.size() == 1 && groups.begin()->first == 1) return 0;
    return static_cast<int>(groups.size());
  }

  int fresh_vertex(int color) {
    (*colors_)[static_cast<std::size_t>(next_vertex_)] = color;
    return next_vertex_++;
  }

  int dynamic_color(const std::string& key) {
    const auto [it, inserted] =
        color_keys_.try_emplace(key, kFirstDynamicColor +
                                         static_cast<int>(color_keys_.size()));
    (void)inserted;
    return it->second;
  }

  void add_clause_structure(const Clause& c) {
    if (c.size() == 1) {
      // Unit clause: a private marker vertex pins the literal's identity
      // (a unit-constrained literal must not swap with a free one).
      const int marker = fresh_vertex(dynamic_color("unit"));
      graph_->add_edge(marker, c[0].code());
      return;
    }
    if (c.size() == 2) {
      graph_->add_edge(c[0].code(), c[1].code());
      return;
    }
    const int clause_vertex = fresh_vertex(kClauseColor);
    for (const Lit l : c) graph_->add_edge(clause_vertex, l.code());
  }

  void add_pb_structure(const PbConstraint& pb) {
    const int constraint_vertex =
        fresh_vertex(dynamic_color("pb:" + std::to_string(pb.bound())));
    const auto groups = coeff_groups(pb);
    if (groups.size() == 1 && groups.begin()->first == 1) {
      for (const Lit l : groups.begin()->second) {
        graph_->add_edge(constraint_vertex, l.code());
      }
      return;
    }
    for (const auto& [coeff, lits] : groups) {
      const int coeff_vertex =
          fresh_vertex(dynamic_color("coeff:" + std::to_string(coeff)));
      graph_->add_edge(constraint_vertex, coeff_vertex);
      for (const Lit l : lits) graph_->add_edge(coeff_vertex, l.code());
    }
  }

  void add_objective_structure(const Objective& objective) {
    const int objective_vertex = fresh_vertex(kObjectiveColor);
    const auto groups = term_coeff_groups(objective.terms);
    if (groups.size() == 1 && groups.begin()->first == 1) {
      for (const Lit l : groups.begin()->second) {
        graph_->add_edge(objective_vertex, l.code());
      }
      return;
    }
    for (const auto& [coeff, lits] : groups) {
      const int coeff_vertex =
          fresh_vertex(dynamic_color("objcoeff:" + std::to_string(coeff)));
      graph_->add_edge(objective_vertex, coeff_vertex);
      for (const Lit l : lits) graph_->add_edge(coeff_vertex, l.code());
    }
  }

  const Formula& formula_;
  Graph* graph_ = nullptr;
  std::vector<int>* colors_ = nullptr;
  int next_vertex_ = 0;
  int extra_ = 0;
  std::map<std::string, int> color_keys_;
};

}  // namespace

FormulaGraph build_formula_graph(const Formula& formula) {
  // Count unit clauses as extra vertices too (see add_clause_structure).
  GraphBuilder builder(formula);
  return builder.build();
}

Perm literal_permutation(const FormulaGraph& fg, std::span<const int> perm) {
  const int lits = fg.num_literal_vertices;
  Perm lit_perm(static_cast<std::size_t>(lits));
  for (int code = 0; code < lits; ++code) {
    const int image = perm[static_cast<std::size_t>(code)];
    if (image >= lits) return {};  // literal mapped onto a constraint vertex
    lit_perm[static_cast<std::size_t>(code)] = image;
  }
  // Boolean consistency: negation must commute with the permutation.
  for (int code = 0; code < lits; ++code) {
    if ((lit_perm[static_cast<std::size_t>(code)] ^ 1) !=
        lit_perm[static_cast<std::size_t>(code ^ 1)]) {
      return {};
    }
  }
  return lit_perm;
}

bool is_formula_symmetry(const Formula& formula,
                         std::span<const int> lit_perm) {
  const int lits = 2 * formula.num_vars();
  if (static_cast<int>(lit_perm.size()) != lits || !is_permutation(lit_perm)) {
    return false;
  }
  auto image_code = [&](int code) {
    return lit_perm[static_cast<std::size_t>(code)];
  };
  for (int code = 0; code < lits; ++code) {
    if ((image_code(code) ^ 1) != image_code(code ^ 1)) return false;
  }
  auto moved = [&](Lit l) { return image_code(l.code()) != l.code(); };

  // A constraint with no moved literal maps to itself. The image of one
  // that touches a moved literal l touches pi(l), which is moved too (by
  // injectivity, pi(pi(l)) == pi(l) would force pi(l) == l). So only the
  // touched constraints need checking, and only against each other.
  std::vector<Clause> clauses;
  for (const Clause& c : formula.clauses()) {
    if (std::none_of(c.begin(), c.end(), moved)) continue;
    Clause& key = clauses.emplace_back(c);
    std::sort(key.begin(), key.end());
  }
  std::sort(clauses.begin(), clauses.end());
  Clause image;
  for (const Clause& c : clauses) {
    image.clear();
    for (const Lit l : c) image.push_back(Lit::from_code(image_code(l.code())));
    std::sort(image.begin(), image.end());
    if (!std::binary_search(clauses.begin(), clauses.end(), image)) {
      return false;
    }
  }

  // PB constraints in canonical form: bound, then sorted (coeff, code).
  using CanonicalPb =
      std::pair<std::int64_t, std::vector<std::pair<std::int64_t, int>>>;
  std::vector<CanonicalPb> pbs;
  for (const PbConstraint& pb : formula.pb_constraints()) {
    const auto terms = pb.terms();
    if (std::none_of(terms.begin(), terms.end(),
                     [&](const PbTerm& t) { return moved(t.lit); })) {
      continue;
    }
    CanonicalPb& key = pbs.emplace_back();
    key.first = pb.bound();
    for (const PbTerm& t : terms) key.second.emplace_back(t.coeff, t.lit.code());
    std::sort(key.second.begin(), key.second.end());
  }
  std::sort(pbs.begin(), pbs.end());
  for (const CanonicalPb& pb : pbs) {
    CanonicalPb mapped = pb;
    for (auto& term : mapped.second) term.second = image_code(term.second);
    std::sort(mapped.second.begin(), mapped.second.end());
    if (!std::binary_search(pbs.begin(), pbs.end(), mapped)) return false;
  }

  // Objective: the set of (coeff, literal) terms must be preserved.
  if (formula.objective()) {
    std::set<std::pair<std::int64_t, int>> terms;
    for (const PbTerm& t : formula.objective()->terms) {
      terms.insert({t.coeff, t.lit.code()});
    }
    for (const PbTerm& t : formula.objective()->terms) {
      if (!terms.contains({t.coeff, image_code(t.lit.code())})) return false;
    }
  }
  return true;
}

}  // namespace symcolor
