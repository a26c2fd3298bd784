#include "symmetry/shatter.h"

#include <optional>

#include "symmetry/formula_graph.h"

namespace symcolor {

SymmetryInfo detect_symmetries(const Formula& formula,
                               const SolveBudget& budget) {
  SymmetryInfo info;
  Timer timer;
  // Literal maps of the graph automorphisms; an empty map is spurious.
  // The graph and the search result are freed before the verifier builds
  // its index of the formula, so peak memory is the larger of the two.
  std::vector<Perm> candidates;
  {
    const FormulaGraph fg = build_formula_graph(formula);
    const AutomorphismResult result =
        find_automorphisms(fg.graph, fg.vertex_colors, budget);
    info.formula_graph_vertices = fg.graph.num_vertices();
    info.complete = result.complete;
    info.log10_order = result.log10_order;
    candidates.reserve(result.generators.size());
    for (const Perm& graph_perm : result.generators) {
      candidates.push_back(literal_permutation(fg, graph_perm));
    }
  }
  std::optional<SymmetryVerifier> verifier;
  for (Perm& lit_perm : candidates) {
    // Breaking a subset of verified symmetries is sound; an unverified
    // generator is never kept.
    if (budget.poll() != BudgetTrip::None) {
      info.complete = false;
      break;
    }
    // Swapping copies of a repeated constraint moves no literal.
    if (!lit_perm.empty() && is_identity(lit_perm)) continue;
    if (!verifier) verifier.emplace(formula);
    if (lit_perm.empty() || !verifier->is_symmetry(lit_perm)) {
      ++info.spurious_rejected;
      continue;
    }
    info.generators.push_back(std::move(lit_perm));
  }
  info.detect_seconds = timer.seconds();
  return info;
}

ShatterStats shatter(Formula& formula, const SolveBudget& budget,
                     int max_support) {
  ShatterStats stats;
  stats.symmetry = detect_symmetries(formula, budget);
  stats.sbp =
      add_lex_leader_sbps(formula, stats.symmetry.generators, max_support);
  return stats;
}

}  // namespace symcolor
