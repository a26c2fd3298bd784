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

#include <cstdint>
#include <utility>
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

/// Checks literal permutations against one formula: true iff the map
/// sends clauses to clauses, PB constraints to PB constraints with equal
/// coefficients and bound, and objective terms to objective terms with
/// equal coefficient.
///
/// The constructor indexes the formula once in O(|F|): every constraint's
/// literals in one flat array, an order-independent 64-bit hash per
/// constraint in an open-addressing table, and a literal-to-constraint
/// occurrence list. `is_symmetry` then visits only the constraints that
/// contain a moved literal (the rest map to themselves), hashes each
/// image without sorting it, and accepts it only after an exact
/// comparison with a table candidate. A call costs O(2*num_vars) for the
/// bijection check plus O(occurrences of the moved literals) plus one
/// probe per touched constraint. Scratch state lives in the verifier, so
/// one instance must not be shared between threads.
class SymmetryVerifier {
 public:
  explicit SymmetryVerifier(const Formula& formula);

  /// `lit_perm` must be a bijection on the 2*num_vars literal codes that
  /// commutes with negation (perm(~l) == ~perm(l)); any other map,
  /// including one of the wrong length, is rejected.
  bool is_symmetry(std::span<const int> lit_perm);

 private:
  [[nodiscard]] bool is_pb(int id) const noexcept { return id >= num_clauses_; }
  [[nodiscard]] std::span<const int> literals(int id) const;
  /// PB rows only: the coefficients parallel to literals(id), and the bound.
  [[nodiscard]] const std::int64_t* coefficients(int id) const;
  [[nodiscard]] std::int64_t bound(int id) const;
  [[nodiscard]] std::uint64_t image_hash(int id,
                                         std::span<const int> perm) const;
  /// True iff some constraint with hash `h` is the image of `id`.
  [[nodiscard]] bool image_present(int id, std::uint64_t h,
                                   std::span<const int> perm);
  [[nodiscard]] bool is_image(int id, int candidate, std::span<const int> perm);

  int num_lits_ = 0;
  int num_clauses_ = 0;  ///< constraint ids below this are clauses
  /// Constraint literal codes, clauses first then PB rows; constraint id
  /// spans [begin_[id], begin_[id + 1]). PB terms start at pb_base_.
  std::vector<int> lits_;
  std::vector<std::size_t> begin_;
  std::size_t pb_base_ = 0;
  std::vector<std::int64_t> coeffs_;  ///< of PB term k, at k - pb_base_
  std::vector<std::int64_t> bounds_;  ///< per PB row
  std::vector<std::uint64_t> lit_hash_;  ///< random word per literal code
  std::vector<std::uint64_t> hash_;      ///< per constraint
  std::vector<int> table_;  ///< open addressing by hash; -1 = empty slot
  std::size_t table_mask_ = 0;
  /// Constraints containing literal code c: occ_[occ_begin_[c] ..
  /// occ_begin_[c + 1]).
  std::vector<int> occ_begin_;
  std::vector<int> occ_;
  /// Objective terms as sorted (literal code, coefficient) pairs.
  std::vector<std::pair<int, std::int64_t>> objective_;

  // Epoch-stamped scratch: a slot is set iff it holds the current epoch.
  std::vector<std::uint32_t> visited_;  ///< per constraint, per call
  std::uint32_t visit_epoch_ = 0;
  std::vector<std::uint32_t> marked_;   ///< per literal, per comparison
  std::uint32_t mark_epoch_ = 0;
  std::vector<int> term_at_;            ///< per literal: PB term index
  /// Constraints of one moved literal awaiting their probe, with hashes.
  std::vector<std::pair<int, std::uint64_t>> pending_;
};

/// One-shot check: `SymmetryVerifier(formula).is_symmetry(lit_perm)`.
/// Callers that check several maps against one formula should keep one
/// verifier instead, so the O(|F|) index is built once.
bool is_formula_symmetry(const Formula& formula, std::span<const int> lit_perm);

}  // namespace symcolor
