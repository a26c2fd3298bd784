#pragma once
// Instance-independent symmetry-breaking predicates (paper Section 3).
//
// All four constructions restrict *color permutations* only — the
// symmetries present in every instance of the 0-1 ILP reduction:
//
//   NU  null-color elimination: unused colors sink to the end
//       (K-1 binary clauses  y_{k+1} -> y_k; correct by re-sorting any
//       solution's colors).
//   CA  cardinality-based ordering: color class sizes are non-increasing
//       (K-1 PB constraints  sum_i x(i,k) >= sum_i x(i,k+1); subsumes NU).
//   LI  lowest-index ordering: the minimal vertex index using color k is
//       increasing in k — a complete value-symmetry break that also
//       destroys vertex symmetries (the paper's key negative finding).
//       Auxiliary "seen" chain s(i,k) (= some vertex <= i has color k)
//       and "lowest" indicators V(i,k), ~5nK short clauses + 2nK vars.
//   SC  selective coloring: pin color 0 on a maximum-degree vertex and
//       color 1 on its maximum-degree neighbour (2 unit clauses; breaks
//       few symmetries at essentially zero cost).

#include <vector>

#include "graph/graph.h"

namespace symcolor {

struct SbpOptions;
struct ColoringEncoding;

/// Append the selected constructions to `enc->formula`, updating the
/// encoding's SBP statistics. Called by encode_coloring.
void add_instance_independent_sbps(const Graph& graph, ColoringEncoding* enc,
                                   const SbpOptions& sbps);

/// The two vertices pinned by selective coloring: the maximum-degree
/// vertex and its maximum-degree neighbour (smallest index on ties).
/// second == -1 when the graph has no edges.
std::pair<int, int> selective_coloring_pins(const Graph& graph);

/// What an SBP row leaves of the color symmetry, known before any search.
struct ColorFreedom {
  /// Vertices the row pins, pinned[c] to color c: SC's one or two pins,
  /// none for the other rows.
  std::vector<int> pinned;
  /// Colors first_free..K-1 stay interchangeable: every permutation of
  /// them, applied to every x(v, j) and y(j), maps the row's constraints
  /// to themselves. -1 when NU, CA or LI order the colors.
  int first_free = -1;
};

/// The one statement of which colors row `sbps` leaves free at K =
/// `num_colors` and which vertices SC pins. No row: all K colors are
/// free. SC: the pins of selective_coloring_pins, the second only when
/// it exists and K >= 2, and the colors above them.
ColorFreedom color_freedom(const Graph& graph, int num_colors,
                           const SbpOptions& sbps);

}  // namespace symcolor
