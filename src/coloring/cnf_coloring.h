#pragma once
// Pure-CNF encoding of K-coloring: the formula of the SAT-loop plan
// (exact_colorer.h).
//
// The per-vertex exactly-one constraint becomes one at-least-one clause
// plus an at-most-one encoding of choice (pairwise, sequential counter,
// commander). Instance-independent SBPs are included; CA's PB
// inequalities are compiled to CNF via pb_to_cnf, so the formula holds
// clauses only.

#include "coloring/encoder.h"

namespace symcolor {

enum class AmoEncoding {
  Pairwise,    ///< K(K-1)/2 binary clauses per vertex, no auxiliaries
  Sequential,  ///< Sinz counter: ~3K clauses, K-1 auxiliaries per vertex
  Commander,   ///< grouped commanders: ~flat hierarchy of group AMOs
};

const char* amo_encoding_name(AmoEncoding encoding);

/// Pure-CNF decision encoding: is `graph` max_colors-colorable?
/// The returned encoding's formula contains no PB constraints.
ColoringEncoding encode_k_coloring_cnf(const Graph& graph, int max_colors,
                                       AmoEncoding amo,
                                       const SbpOptions& sbps = {});

}  // namespace symcolor
