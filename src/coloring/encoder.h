#pragma once
// Reduction of minimum graph coloring to 0-1 ILP (Section 2.5 of the
// paper) plus the four instance-independent SBP constructions (Section 3).
//
// For a graph G(V,E) and color bound K the encoding uses:
//   * indicator x(i,j): vertex i has color j              [nK variables]
//   * per vertex: sum_j x(i,j) == 1                       [n PB equalities]
//   * per edge (a,b), per color j: (~x(a,j) | ~x(b,j))    [mK clauses]
//   * usage y(j) <-> OR_i x(i,j):
//       x(i,j) -> y(j)                                    [nK clauses]
//       y(j) -> OR_i x(i,j)                               [K clauses]
//   * objective MIN sum_j y(j).
//
// Variable order is x-block (vertex-major), then y-block, then SBP
// auxiliaries — the lowest-index ordering the LI construction and the
// lex-leader SBPs both key off.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnf/formula.h"
#include "graph/graph.h"

namespace symcolor {

/// Which instance-independent SBP constructions to add at encode time.
struct SbpOptions {
  bool nu = false;  ///< null-color elimination (Section 3.1)
  bool ca = false;  ///< cardinality-based color ordering (Section 3.2)
  bool li = false;  ///< lowest-index color ordering (Section 3.3)
  bool sc = false;  ///< selective coloring (Section 3.4)
  /// Use the paper's literal LI construction (quadratic, existentially
  /// chosen V indicators, weak propagation) instead of this library's
  /// arc-consistent chained LI. Only meaningful with li = true; kept as
  /// a separate knob because the two differ sharply in solver behaviour.
  bool li_paper_literal = false;

  [[nodiscard]] bool any() const noexcept { return nu || ca || li || sc; }
  [[nodiscard]] std::string label() const;

  static SbpOptions none() { return {}; }
  static SbpOptions nu_only() { return {.nu = true}; }
  static SbpOptions ca_only() { return {.ca = true}; }
  static SbpOptions li_only() { return {.li = true}; }
  static SbpOptions li_paper() { return {.li = true, .li_paper_literal = true}; }
  static SbpOptions sc_only() { return {.sc = true}; }
  static SbpOptions nu_sc() { return {.nu = true, .sc = true}; }
};

/// The paper's Table 2/3 construction rows, in order, with the
/// paper-literal LI variant appended as a seventh row.
std::vector<SbpOptions> paper_sbp_rows();

struct ColoringEncoding {
  Formula formula;
  int num_vertices = 0;
  int num_colors = 0;

  /// x(i,j): vertex i uses color j.
  [[nodiscard]] Var x(int vertex, int color) const noexcept {
    return vertex * num_colors + color;
  }
  /// y(j): color j is used by some vertex.
  [[nodiscard]] Var y(int color) const noexcept {
    return num_vertices * num_colors + color;
  }

  /// Count of vertex "exactly one color" equalities — the paper's #PB
  /// statistic counts each equality as one 0-1 ILP constraint.
  int ilp_equalities = 0;
  /// Clauses contributed by instance-independent SBPs.
  int sbp_clauses = 0;
  /// PB constraints contributed by instance-independent SBPs (CA).
  int sbp_pb_constraints = 0;
  /// Auxiliary variables contributed by instance-independent SBPs (LI).
  int sbp_vars = 0;

  /// Extract the per-vertex coloring (values in 0..num_colors-1) from a
  /// satisfying model. Throws if some vertex has no color set.
  [[nodiscard]] std::vector<int> decode(std::span<const LBool> model) const;
};

/// Build the optimization encoding (with objective). `sbps` selects
/// instance-independent SBPs added during formulation.
ColoringEncoding encode_coloring(const Graph& graph, int max_colors,
                                 const SbpOptions& sbps = {});

/// Decision variant: identical constraints but no objective; asks whether
/// the graph is max_colors-colorable.
ColoringEncoding encode_k_coloring(const Graph& graph, int max_colors,
                                   const SbpOptions& sbps = {});

}  // namespace symcolor
