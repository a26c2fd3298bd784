#pragma once
// Pre-solve formula simplification.
//
// Applied between encoding and search (the niche SatELite-style
// preprocessors occupy in a SAT pipeline): root-level unit propagation
// over clauses and PB constraints, pure-literal fixing, and clause
// subsumption. The simplified formula lives on the SAME variable space —
// fixed variables are kept as unit clauses — so models, decoders and
// objectives carry over unchanged, and the transformation preserves the
// full model set over non-pure variables (pure fixing preserves
// satisfiability and never worsens the objective because objective
// variables are exempt from it).

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "cnf/pb_constraint.h"

namespace symcolor {

struct SimplifyStats {
  int fixed_variables = 0;     ///< by unit propagation
  int pure_literals = 0;       ///< fixed by purity
  int removed_clauses = 0;     ///< satisfied at root or subsumed
  int shortened_clauses = 0;   ///< false literals stripped
  int removed_pb = 0;          ///< PB constraints satisfied or clausified
  bool unsatisfiable = false;  ///< root conflict found
};

struct SimplifyOptions {
  bool propagate_units = true;
  bool pure_literals = true;
  bool subsumption = true;
  /// Cap on subsumption source-clause length (longer clauses are still
  /// eligible targets); bounds the quadratic corner.
  int max_subsumption_width = 12;
};

/// Simplify `formula`; returns the reduced formula and fills `stats`.
Formula simplify(const Formula& formula, SimplifyStats* stats = nullptr,
                 const SimplifyOptions& options = {});

// ---- root reduction of one constraint (the propagation round's core) ----

/// What reducing a clause against a root assignment yielded.
enum class RootClauseStatus : std::uint8_t {
  Unchanged,  ///< no literal assigned; `reduced` untouched
  Shortened,  ///< false literals stripped; `reduced` holds >= 2 literals
  Satisfied,  ///< some literal true at root; drop the clause
  Unit,       ///< one literal left; `reduced` holds exactly it
  Empty,      ///< every literal false at root; the formula is unsat
};

/// Reduce `lits` against `values` (indexed by variable): drop false
/// literals, detect satisfaction/unit/empty. Writes the surviving
/// literals into `*reduced` except when Unchanged or Satisfied.
RootClauseStatus reduce_clause_at_root(std::span<const Lit> lits,
                                       std::span<const LBool> values,
                                       Clause* reduced);

/// What reducing a PB row against a root assignment yielded.
enum class RootPbStatus : std::uint8_t {
  Open,           ///< still a proper PB row; see `constraint` and `forced`
  Clause,         ///< degenerated to a clause; see `constraint`
  Satisfied,      ///< tautological after folding; drop the row
  Contradiction,  ///< bound exceeds the attainable sum; unsat
};

struct RootPbReduction {
  RootPbStatus status = RootPbStatus::Satisfied;
  /// The folded row (Open) or its clause form (Clause).
  PbConstraint constraint;
  /// Literals the folded row forces outright (coefficient > slack);
  /// filled for Open rows only.
  std::vector<Lit> forced;
};

/// Fold root-assigned literals out of `terms >= bound` (true terms pay
/// their coefficient off the bound, false terms drop) and classify the
/// remainder. `terms` need not be normalized; duplicate and complementary
/// literals are merged by PbConstraint's own normalization. Throws
/// std::overflow_error when folding overflows int64 (as PbConstraint
/// construction itself would).
RootPbReduction reduce_pb_at_root(std::span<const PbTerm> terms,
                                  std::int64_t bound,
                                  std::span<const LBool> values);

}  // namespace symcolor
