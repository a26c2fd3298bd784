#include "coloring/cnf_coloring.h"

#include <algorithm>
#include <stdexcept>

#include "cnf/pb_to_cnf.h"
#include "coloring/sbp.h"

namespace symcolor {
namespace {

void add_pairwise_amo(Formula& f, const std::vector<Lit>& lits) {
  for (std::size_t a = 0; a < lits.size(); ++a) {
    for (std::size_t b = a + 1; b < lits.size(); ++b) {
      f.add_clause({~lits[a], ~lits[b]});
    }
  }
}

void add_commander_amo(Formula& f, std::vector<Lit> lits) {
  // Groups of three with one commander each; recurse on the commanders.
  constexpr std::size_t kGroup = 3;
  while (lits.size() > kGroup) {
    std::vector<Lit> commanders;
    for (std::size_t start = 0; start < lits.size(); start += kGroup) {
      const std::size_t end = std::min(start + kGroup, lits.size());
      std::vector<Lit> group(lits.begin() + static_cast<long>(start),
                             lits.begin() + static_cast<long>(end));
      if (group.size() == 1) {
        commanders.push_back(group[0]);
        continue;
      }
      const Lit commander = Lit::positive(f.new_var());
      add_pairwise_amo(f, group);
      // Any group member implies its commander; a false commander
      // silences the whole group.
      for (const Lit l : group) f.add_implication(l, commander);
      commanders.push_back(commander);
    }
    lits = std::move(commanders);
  }
  add_pairwise_amo(f, lits);
}

}  // namespace

const char* amo_encoding_name(AmoEncoding encoding) {
  switch (encoding) {
    case AmoEncoding::Pairwise: return "pairwise";
    case AmoEncoding::Sequential: return "sequential";
    case AmoEncoding::Commander: return "commander";
  }
  return "?";
}

ColoringEncoding encode_k_coloring_cnf(const Graph& graph, int max_colors,
                                       AmoEncoding amo,
                                       const SbpOptions& sbps) {
  if (max_colors < 1) throw std::invalid_argument("need at least one color");
  if (!graph.finalized()) throw std::invalid_argument("graph not finalized");

  ColoringEncoding enc;
  enc.num_vertices = graph.num_vertices();
  enc.num_colors = max_colors;
  Formula& f = enc.formula;
  const int n = enc.num_vertices;
  const int k = enc.num_colors;

  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      f.new_var("x_" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  for (int j = 0; j < k; ++j) f.new_var("y_" + std::to_string(j));

  // Exactly-one per vertex, in CNF.
  for (int i = 0; i < n; ++i) {
    std::vector<Lit> lits;
    lits.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) lits.push_back(Lit::positive(enc.x(i, j)));
    f.add_clause(Clause(lits.begin(), lits.end()));
    switch (amo) {
      case AmoEncoding::Pairwise:
        add_pairwise_amo(f, lits);
        break;
      case AmoEncoding::Sequential:
        encode_cardinality_at_most(f, lits, 1);
        break;
      case AmoEncoding::Commander:
        add_commander_amo(f, lits);
        break;
    }
  }

  for (const Edge& e : graph.edges()) {
    for (int j = 0; j < k; ++j) {
      f.add_clause({Lit::negative(enc.x(e.u, j)), Lit::negative(enc.x(e.v, j))});
    }
  }

  for (int j = 0; j < k; ++j) {
    Clause some_user{Lit::negative(enc.y(j))};
    for (int i = 0; i < n; ++i) {
      f.add_implication(Lit::positive(enc.x(i, j)), Lit::positive(enc.y(j)));
      some_user.push_back(Lit::positive(enc.x(i, j)));
    }
    f.add_clause(std::move(some_user));
  }

  add_instance_independent_sbps(graph, &enc, sbps);
  if (enc.formula.num_pb() > 0) {
    // CA added PB inequalities: compile them away to stay pure CNF.
    enc.formula = to_pure_cnf(enc.formula);
  }
  return enc;
}

}  // namespace symcolor
