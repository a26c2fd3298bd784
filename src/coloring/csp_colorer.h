#pragma once
// A not-equals CSP backtracking colorer with *dynamic* value-symmetry
// breaking — the Benhamou-style baseline of the paper's Section 4.3 and
// the counterpart to its static SBPs.
//
// Graph coloring as a CSP has one variable per vertex with domain
// 1..K and a not-equals constraint per edge (NECSP); the search assigns
// the vertices in natural order. Color values are
// interchangeable, and a dynamic solver can exploit that *during
// search*: when extending a partial assignment, trying more than one
// so-far-unused color is redundant — all fresh colors are symmetric.
// The `break_value_symmetry` toggle turns that rule on and off, giving
// a clean measurement of dynamic symmetry breaking against the paper's
// static predicates (bench_ablation_dynamic).

#include <vector>

#include "graph/graph.h"
#include "util/timer.h"

namespace symcolor {

struct CspColorerOptions {
  int max_colors = 0;  ///< K; must be >= 1
  /// Dynamic value-symmetry breaking: a vertex may try at most one
  /// fresh (so-far-unused) color per node.
  bool break_value_symmetry = true;
};

struct CspColorerResult {
  bool satisfiable = false;
  bool completed = false;  ///< search finished within the deadline
  std::vector<int> coloring;
  long long nodes = 0;
  double seconds = 0.0;
};

/// Decide K-colorability by chronological backtracking.
CspColorerResult csp_k_coloring(const Graph& graph,
                                const CspColorerOptions& options,
                                const Deadline& deadline = {});

/// Minimize colors by descending K queries (the NECSP optimization loop).
/// Returns the chromatic number in `coloring`'s color count when
/// `completed`.
CspColorerResult csp_min_coloring(const Graph& graph,
                                  bool break_value_symmetry = true,
                                  const Deadline& deadline = {});

}  // namespace symcolor
