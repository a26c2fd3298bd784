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
/// The constructor indexes the formula once in O(|F|), binary clauses
/// apart from everything else (in the coloring encodings nearly every
/// clause is a binary edge or at-most-one clause):
///   * binary clauses, twice: per literal code c, the codes of c's
///     partners in one flat array (a CSR filled by counting sort, 8 bytes
///     per clause), and each clause as one exact 64-bit key, lower code
///     << 32 | higher code, in an open-addressing set at load <= 1/2
///     (all-ones marks an empty slot; 16 to 32 bytes per clause).
///     Duplicate clauses share one key;
///   * every other constraint (units, clauses of three or more literals,
///     PB rows): its literals in one flat array, an order-independent
///     64-bit hash per constraint in an open-addressing table, and a
///     literal-to-constraint occurrence list over these constraints only.
///
/// `is_symmetry` visits only what contains a moved literal (the rest maps
/// to itself). For each moved literal it walks the partner row, computes
/// the image key of each clause (a clause whose two literals both move is
/// taken once, from its lower code) and probes the key set, prefetching
/// slots in batches of 16; a key match is exact, so no comparison
/// follows. Each other touched constraint is hashed without sorting and
/// accepted only after an exact comparison with a table candidate. A call
/// costs O(2*num_vars) for the bijection check plus O(occurrences of the
/// moved literals) plus one probe per touched constraint. Scratch state
/// lives in the verifier, so one instance must not be shared between
/// threads.
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
  /// The key set's slot for `key`, the first to probe.
  [[nodiscard]] std::size_t key_slot(std::uint64_t key) const noexcept;
  [[nodiscard]] bool key_present(std::uint64_t key) const noexcept;
  /// True iff every binary clause with a literal in moved_ maps onto one.
  [[nodiscard]] bool binary_images_present(std::span<const int> perm) const;

  int num_lits_ = 0;

  // Binary clauses. The partners of literal code c are
  // partner_[partner_begin_[c] .. partner_begin_[c + 1]).
  std::vector<int> partner_begin_;
  std::vector<int> partner_;
  std::vector<std::uint64_t> keys_;  ///< the key set; all-ones = empty slot
  int key_shift_ = 0;                ///< 64 - log2(keys_.size())

  // Every other constraint.
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
  /// Per literal, per comparison (and per call, for the bijection check).
  std::vector<std::uint32_t> marked_;
  std::uint32_t mark_epoch_ = 0;
  std::vector<int> term_at_;            ///< per literal: PB term index
  std::vector<int> moved_;              ///< codes the map moves, per call
  /// Constraints of one moved literal awaiting their probe, with hashes.
  std::vector<std::pair<int, std::uint64_t>> pending_;
};

/// One-shot check: `SymmetryVerifier(formula).is_symmetry(lit_perm)`.
/// Callers that check several maps against one formula should keep one
/// verifier instead, so the O(|F|) index is built once.
bool is_formula_symmetry(const Formula& formula, std::span<const int> lit_perm);

}  // namespace symcolor
