#include "coloring/color_symmetry.h"

#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "automorphism/search.h"
#include "coloring/sbp.h"
#include "symmetry/formula_graph.h"

namespace symcolor {
namespace {

/// The literal permutation that sends color first + i to color_image[i]
/// and fixes every other color: x(v, first + i) goes to
/// x(v, color_image[i]) for every vertex, and y(first + i) to
/// y(color_image[i]), in both phases.
Perm color_permutation(const ColoringEncoding& enc, int first,
                       std::span<const int> color_image) {
  Perm perm = identity_perm(2 * enc.formula.num_vars());
  const auto map_var = [&perm](Var from, Var to) {
    for (const int phase : {0, 1}) {
      perm[static_cast<std::size_t>(Lit::positive(from).code() ^ phase)] =
          Lit::positive(to).code() ^ phase;
    }
  };
  for (std::size_t i = 0; i < color_image.size(); ++i) {
    const int from = first + static_cast<int>(i);
    for (int v = 0; v < enc.num_vertices; ++v) {
      map_var(enc.x(v, from), enc.x(v, color_image[i]));
    }
    map_var(enc.y(from), enc.y(color_image[i]));
  }
  return perm;
}

/// The literal permutation that swaps colors j and j + 1.
Perm color_transposition(const ColoringEncoding& enc, int j) {
  const int image[] = {j + 1, j};
  return color_permutation(enc, j, image);
}

/// The permutations of colors first_free..K-1, or nullopt when they are
/// no symmetries of the formula. Two maps are verified: tau = (K-2 K-1)
/// and the cycle zeta = (f f+1 ... K-1). They generate every permutation
/// of the free colors, and each adjacent transposition (j j+1) is
/// zeta^-m tau zeta^m with m = K-2-j, so all of them are symmetries
/// exactly when tau and zeta are (a formula's symmetries form a group).
/// The generators are those transpositions, (K-2 K-1) first, in the
/// order the formula-graph search adds them, and log10_order sums log10
/// of the orbit sizes 2, 3, ..., K - first_free in that order, so both
/// routes give the same double. On a budget trip `complete` is false and
/// tau is kept if it has passed.
std::optional<SymmetryInfo> closed_form(const ColoringEncoding& enc,
                                        int first_free,
                                        const SolveBudget& budget) {
  SymmetryInfo info;
  info.closed_form = true;
  const int num_free = enc.num_colors - first_free;
  for (int orbit = 2; orbit <= num_free; ++orbit) {
    info.log10_order += std::log10(static_cast<double>(orbit));
  }
  const auto tripped = [&] {
    if (budget.poll() == BudgetTrip::None) return false;
    info.complete = false;
    return true;
  };
  if (num_free < 2 || tripped()) return info;
  const int last = enc.num_colors - 2;  // tau swaps colors last and last + 1
  SymmetryVerifier verifier(enc.formula);
  Perm tau = color_transposition(enc, last);
  if (!verifier.is_symmetry(tau)) return std::nullopt;
  info.generators.push_back(std::move(tau));
  if (num_free > 2) {  // at two free colors zeta is tau
    if (tripped()) return info;
    std::vector<int> image(static_cast<std::size_t>(num_free));
    std::iota(image.begin(), image.end(), first_free + 1);
    image.back() = first_free;
    if (!verifier.is_symmetry(color_permutation(enc, first_free, image))) {
      return std::nullopt;
    }
  }
  for (int j = last - 1; j >= first_free; --j) {
    info.generators.push_back(color_transposition(enc, j));
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
