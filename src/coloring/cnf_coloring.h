#pragma once
// Compat residue of the SAT loop's former at-most-one choice: the loop's
// pure-CNF formula is encode_k_coloring_cnf (coloring/encoder.h), with
// one at-most-one encoding, the commander (cnf/pb_to_cnf.h). Everything
// here is read only by suitebench; ROADMAP item 1c's [benchmark] PR
// deletes it.

#include "coloring/encoder.h"

namespace symcolor {

/// The one at-most-one encoding.
enum class AmoEncoding { Commander };

/// encode_k_coloring_cnf plus the `amo` parameter suitebench passes.
inline ColoringEncoding encode_k_coloring_cnf(const Graph& graph,
                                              int max_colors,
                                              AmoEncoding /*amo*/,
                                              const SbpOptions& sbps = {}) {
  return encode_k_coloring_cnf(graph, max_colors, sbps);
}

}  // namespace symcolor
