#include "coloring/set_cover_formulation.h"

#include <stdexcept>

#include "graph/clique.h"

namespace symcolor {

std::optional<SetCoverEncoding> encode_set_cover_coloring(
    const Graph& graph, std::size_t max_sets) {
  bool truncated = false;
  std::vector<std::vector<int>> sets =
      maximal_independent_sets(graph, max_sets, &truncated);
  if (truncated) return std::nullopt;

  SetCoverEncoding enc;
  enc.set_members = std::move(sets);
  Formula& f = enc.formula;
  const int num_sets = static_cast<int>(enc.set_members.size());
  f.new_vars(num_sets);

  // Covering constraint per vertex.
  std::vector<std::vector<Lit>> covers(
      static_cast<std::size_t>(graph.num_vertices()));
  for (int s = 0; s < num_sets; ++s) {
    for (const int v : enc.set_members[static_cast<std::size_t>(s)]) {
      covers[static_cast<std::size_t>(v)].push_back(Lit::positive(s));
    }
  }
  for (const std::vector<Lit>& cover : covers) {
    if (cover.empty()) {
      throw std::logic_error("vertex in no maximal independent set");
    }
    f.add_clause(cover);
  }

  Objective objective;
  for (int s = 0; s < num_sets; ++s) {
    objective.terms.push_back({1, Lit::positive(s)});
  }
  f.set_objective(std::move(objective));
  return enc;
}

std::vector<int> SetCoverEncoding::decode(std::span<const LBool> model,
                                          int num_vertices) const {
  std::vector<int> colors(static_cast<std::size_t>(num_vertices), -1);
  int color = 0;
  for (std::size_t s = 0; s < set_members.size(); ++s) {
    if (model[s] != LBool::True) continue;
    for (const int v : set_members[s]) {
      if (colors[static_cast<std::size_t>(v)] == -1) {
        colors[static_cast<std::size_t>(v)] = color;
      }
    }
    ++color;
  }
  for (const int c : colors) {
    if (c == -1) throw std::runtime_error("set cover left a vertex uncovered");
  }
  return colors;
}

}  // namespace symcolor
