#pragma once
// Symmetry detection for the coloring encoding, with the paper's
// instance-independent part in closed form.
//
// The color permutations are symmetries of every instance (Section 3),
// so they need no search. When the SBP row leaves colors f..K-1
// interchangeable (no row, or SC alone; coloring/sbp.h color_freedom) and
// the input graph, with SC's pins together in a color class of their own,
// has no automorphism, the formula's group is exactly the permutations of
// those colors. Its generators are then the adjacent color transpositions, as
// literal permutations over x(v, j) and y(j), in the order the
// formula-graph search finds them: (K-2 K-1) first, down to (f f+1).
// The search that proves the input rigid runs on a graph about 40 times
// smaller than the formula graph. Two literal maps are verified against
// the formula: tau = (K-2 K-1) and the cycle zeta = (f f+1 ... K-1). Every
// other transposition is a conjugate of tau by a power of zeta, so it is
// a symmetry exactly when both are; one check per transposition would
// re-hash every exactly-one row each time.
//
// Every other case searches the formula graph (detect_symmetries): the
// NU, CA and LI rows, a graph with automorphisms, a search the budget
// cut, a formula with variables beyond x and y, a closed-form generator
// that fails verification (counted in spurious_rejected), and the
// degenerate inputs K = 1 and a graph without edges.

#include "coloring/encoder.h"
#include "symmetry/shatter.h"

namespace symcolor {

/// Symmetries of `enc`, the encoding of `graph` under SBP row `sbps` as
/// the encoder returned it (an objective may have been added since). A
/// complete result equals detect_symmetries(enc.formula) in generators,
/// their order and log10_order; `closed_form` and
/// `formula_graph_vertices` record the route. Every generator is a
/// verified symmetry: on the formula route each passes SymmetryVerifier,
/// on the closed route tau and zeta pass it and the rest are their
/// conjugates. The budget is polled before each check: on a trip
/// `complete` is false and only verified generators are kept (tau alone,
/// or none, on the closed route).
SymmetryInfo detect_coloring_symmetries(const Graph& graph,
                                        const ColoringEncoding& enc,
                                        const SbpOptions& sbps,
                                        const SolveBudget& budget = {});

}  // namespace symcolor
