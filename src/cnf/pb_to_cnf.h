#pragma once
// Conversion of pseudo-Boolean constraints to CNF.
//
// The paper (Section 2.3) contrasts the native-PB route with CNF
// conversions, citing Warners' linear-overhead transformation. This
// module provides the converters used by the pure-CNF coloring encoding:
//
//  * at-most-one — the commander encoding (Klieber & Kwon 2007): groups
//    of three, each with a pairwise AMO and a commander implied by every
//    member; the commanders recurse until one group is left. About n/2
//    auxiliary variables and 3n clauses;
//  * cardinality constraints — the sequential-counter encoding
//    (Sinz 2005 style): s(i,j) = "at least j of the first i+1 literals
//    are true", O(n*bound) auxiliary variables and clauses, arc-
//    consistent under unit propagation;
//  * general PB constraints — a Tseitin-encoded reduced ordered BDD over
//    the weighted sum, linear in the number of distinct (index, residual
//    bound) pairs; polynomial for the coefficient patterns that occur in
//    practice.
//
// All three preserve equisatisfiability over the original variables:
// every model of the original constraint extends to an assignment of the
// auxiliaries, and no new models over the original variables appear.

#include "cnf/formula.h"
#include "cnf/pb_constraint.h"

namespace symcolor {

struct PbToCnfStats {
  int aux_vars = 0;
  int clauses = 0;
};

/// Encode "at most one of `lits`" as CNF into `formula` using the
/// commander construction.
PbToCnfStats encode_at_most_one(Formula& formula, std::vector<Lit> lits);

/// Encode "at least `bound` of `lits`" as CNF into `formula` using the
/// sequential-counter construction. bound <= 0 is a no-op; an infeasible
/// bound adds the empty clause.
PbToCnfStats encode_cardinality_at_least(Formula& formula,
                                         const std::vector<Lit>& lits,
                                         int bound);

/// Encode "at most `bound` of `lits`" (dual of the above).
PbToCnfStats encode_cardinality_at_most(Formula& formula,
                                        const std::vector<Lit>& lits,
                                        int bound);

/// Encode an arbitrary normalized PB constraint via a BDD. Dispatches to
/// the sequential counter when the constraint is a cardinality.
PbToCnfStats encode_pb_as_cnf(Formula& formula, const PbConstraint& pb);

/// Rewrite a whole formula into pure CNF: every PB constraint is encoded
/// and removed. The objective (if any) is preserved untouched.
Formula to_pure_cnf(const Formula& formula, PbToCnfStats* stats = nullptr);

}  // namespace symcolor
