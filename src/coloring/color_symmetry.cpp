#include "coloring/color_symmetry.h"

#include <cmath>
#include <optional>
#include <utility>

#include "automorphism/search.h"
#include "coloring/sbp.h"
#include "symmetry/formula_graph.h"

namespace symcolor {
namespace {

/// The literal permutation that swaps colors j and j + 1: x(v, j) with
/// x(v, j + 1) for every vertex, and y(j) with y(j + 1), in both phases.
Perm color_transposition(const ColoringEncoding& enc, int j) {
  Perm perm = identity_perm(2 * enc.formula.num_vars());
  const auto swap_vars = [&perm](Var a, Var b) {
    for (const int phase : {0, 1}) {
      const int ca = Lit::positive(a).code() ^ phase;
      const int cb = Lit::positive(b).code() ^ phase;
      perm[static_cast<std::size_t>(ca)] = cb;
      perm[static_cast<std::size_t>(cb)] = ca;
    }
  };
  for (int v = 0; v < enc.num_vertices; ++v) {
    swap_vars(enc.x(v, j), enc.x(v, j + 1));
  }
  swap_vars(enc.y(j), enc.y(j + 1));
  return perm;
}

/// The permutations of colors first_free..K-1, each generator verified;
/// nullopt when one fails verification. log10_order sums log10 of the
/// orbit sizes 2, 3, ..., K - first_free in the order the formula-graph
/// search adds them, so both routes give the same double.
std::optional<SymmetryInfo> closed_form(const ColoringEncoding& enc,
                                        int first_free,
                                        const SolveBudget& budget) {
  SymmetryInfo info;
  info.closed_form = true;
  for (int orbit = 2; orbit <= enc.num_colors - first_free; ++orbit) {
    info.log10_order += std::log10(static_cast<double>(orbit));
  }
  std::optional<SymmetryVerifier> verifier;
  for (int j = enc.num_colors - 2; j >= first_free; --j) {
    if (budget.poll() != BudgetTrip::None) {
      info.complete = false;
      break;
    }
    if (!verifier) verifier.emplace(enc.formula);
    Perm perm = color_transposition(enc, j);
    if (!verifier->is_symmetry(perm)) return std::nullopt;
    info.generators.push_back(std::move(perm));
  }
  return info;
}

}  // namespace

SymmetryInfo detect_coloring_symmetries(const Graph& graph,
                                        const ColoringEncoding& enc,
                                        const SbpOptions& sbps,
                                        const SolveBudget& budget) {
  Timer timer;
  const int n = enc.num_vertices;
  const ColorFreedom freedom = color_freedom(graph, enc.num_colors, sbps);
  // Degenerate inputs search the formula graph, where the group can hold
  // more than color permutations: at K = 1, SC's unit clause repeats its
  // vertex's one-literal exactly-one row, and the swap of the two counts
  // in log10_order (its identity literal map is no generator); on one
  // vertex at K = 2 without an objective, complementing every variable is
  // a symmetry.
  const bool closed_form_applies =
      freedom.first_free >= 0 && enc.num_colors >= 2 &&
      graph.num_edges() > 0 && graph.num_vertices() == n &&
      enc.formula.num_vars() == (n + 1) * enc.num_colors;
  int rejected = 0;
  if (closed_form_applies) {
    // SC's pins share a color class of their own: an automorphism that
    // swaps the two pins, composed with the color swap (0 1), is a
    // symmetry of the formula too.
    std::vector<int> colors(static_cast<std::size_t>(n), 0);
    for (const int v : freedom.pinned) colors[static_cast<std::size_t>(v)] = 1;
    const AutomorphismResult aut = find_automorphisms(graph, colors, budget);
    if (aut.complete && aut.generators.empty()) {
      if (std::optional<SymmetryInfo> info =
              closed_form(enc, freedom.first_free, budget)) {
        info->detect_seconds = timer.seconds();
        return std::move(*info);
      }
      rejected = 1;  // fall back to searching the formula graph
    }
  }
  SymmetryInfo info = detect_symmetries(enc.formula, budget);
  info.spurious_rejected += rejected;
  info.detect_seconds = timer.seconds();
  return info;
}

}  // namespace symcolor
