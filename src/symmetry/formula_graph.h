#pragma once
// Reduction of a CNF+PB formula to a vertex-colored graph whose
// automorphisms are exactly the formula's symmetries (Section 2.4 of the
// paper; the construction of Aloul, Ramani, Markov & Sakallah with the
// PB extension of their ASP-DAC'04 paper).
//
// Layout:
//   * one vertex per literal, all sharing color 0; an edge joins the two
//     literals of each variable (Boolean consistency). Giving both phases
//     one color permits phase-shift symmetries;
//   * a binary clause is an edge between its two literal vertices
//     (the paper's optimization — see the caveat about circular
//     implication chains, which our encodings do not produce);
//   * a longer clause is a vertex of color 1 joined to its literals;
//   * a PB constraint is a vertex colored by its bound class (distinct
//     bounds get distinct colors, so constraints with different bounds
//     can never map to each other); unit-coefficient terms attach
//     directly, non-unit coefficients go through intermediate vertices
//     colored by coefficient class;
//   * the objective is a vertex with its own unique color.

#include <vector>

#include "automorphism/perm.h"
#include "cnf/formula.h"
#include "graph/graph.h"

namespace symcolor {

struct FormulaGraph {
  Graph graph;
  std::vector<int> vertex_colors;
  /// Literal with code c occupies graph vertex c; vertices >= 2*num_vars
  /// are constraint/coefficient vertices.
  int num_literal_vertices = 0;

  [[nodiscard]] int literal_vertex(Lit l) const noexcept { return l.code(); }
};

/// Build the colored symmetry graph of `formula`.
FormulaGraph build_formula_graph(const Formula& formula);

/// Restrict a graph automorphism to the literal vertices. Returns an
/// empty vector if the permutation is "spurious": it fails Boolean
/// consistency (perm(~l) != ~perm(l)) or moves literal vertices onto
/// constraint vertices.
Perm literal_permutation(const FormulaGraph& fg, std::span<const int> perm);

/// True iff `lit_perm` maps the formula onto itself: clauses to clauses,
/// PB constraints to PB constraints with equal bound, objective terms to
/// objective terms with equal coefficient.
///
/// `lit_perm` must be a bijection on the 2*num_vars literal codes that
/// commutes with negation (perm(~l) == ~perm(l)); any other map, including
/// one of the wrong length, is rejected. Only constraints that contain a
/// moved literal are checked (the rest map to themselves), so the cost is
/// one linear scan of the formula plus a sort of, and one binary search
/// per, the touched constraints.
bool is_formula_symmetry(const Formula& formula, std::span<const int> lit_perm);

}  // namespace symcolor
