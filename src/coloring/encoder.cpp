#include "coloring/encoder.h"

#include <stdexcept>

#include "cnf/pb_to_cnf.h"
#include "coloring/sbp.h"

namespace symcolor {

std::string SbpOptions::label() const {
  if (!any()) return "none";
  std::string out;
  auto append = [&out](const char* tag) {
    if (!out.empty()) out += "+";
    out += tag;
  };
  if (nu) append("NU");
  if (ca) append("CA");
  if (li) append(li_paper_literal ? "LIq" : "LI");
  if (sc) append("SC");
  return out;
}

std::optional<SbpOptions> parse_sbp(std::string_view name) {
  if (name == "none") return SbpOptions::none();
  if (name == "nu") return SbpOptions::nu_only();
  if (name == "ca") return SbpOptions::ca_only();
  if (name == "li") return SbpOptions::li_only();
  if (name == "liq") return SbpOptions::li_paper();
  if (name == "sc") return SbpOptions::sc_only();
  if (name == "nu+sc") return SbpOptions::nu_sc();
  return std::nullopt;
}

std::vector<SbpOptions> paper_sbp_rows() {
  return {SbpOptions::none(),    SbpOptions::nu_only(), SbpOptions::ca_only(),
          SbpOptions::li_only(), SbpOptions::sc_only(), SbpOptions::nu_sc(),
          SbpOptions::li_paper()};
}

namespace {

/// The one assignment encoder. `pure_cnf` states each vertex's
/// exactly-one as an at-least-one clause plus the commander at-most-one
/// and compiles CA's PB rows to CNF, so the formula holds clauses only;
/// otherwise exactly-one is one PB equality, the paper's 0-1 ILP row.
ColoringEncoding encode_impl(const Graph& graph, int max_colors,
                             const SbpOptions& sbps, bool with_objective,
                             bool pure_cnf) {
  if (max_colors < 1) throw std::invalid_argument("need at least one color");
  if (!graph.finalized()) throw std::invalid_argument("graph not finalized");

  ColoringEncoding enc;
  enc.num_vertices = graph.num_vertices();
  enc.num_colors = max_colors;
  Formula& f = enc.formula;

  const int n = enc.num_vertices;
  const int k = enc.num_colors;

  // x block, vertex-major, then y block (must match x()/y() arithmetic).
  f.new_vars(n * k + k);

  // Each vertex gets exactly one color.
  for (int i = 0; i < n; ++i) {
    std::vector<Lit> lits;
    lits.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) lits.push_back(Lit::positive(enc.x(i, j)));
    if (pure_cnf) {
      f.add_clause(lits);
      encode_at_most_one(f, std::move(lits));
    } else {
      f.add_exactly(lits, 1);
      ++enc.ilp_equalities;
    }
  }

  // Adjacent vertices differ in color.
  for (const Edge& e : graph.edges()) {
    for (int j = 0; j < k; ++j) {
      f.add_clause({Lit::negative(enc.x(e.u, j)), Lit::negative(enc.x(e.v, j))});
    }
  }

  // Usage indicators: y(j) <-> OR_i x(i,j).
  for (int j = 0; j < k; ++j) {
    std::vector<Lit> some_user{Lit::negative(enc.y(j))};
    for (int i = 0; i < n; ++i) {
      f.add_implication(Lit::positive(enc.x(i, j)), Lit::positive(enc.y(j)));
      some_user.push_back(Lit::positive(enc.x(i, j)));
    }
    f.add_clause(some_user);
  }

  if (with_objective) add_color_count_objective(&enc);

  add_instance_independent_sbps(graph, &enc, sbps);
  if (pure_cnf && f.num_pb() > 0) f = to_pure_cnf(f);
  return enc;
}

}  // namespace

void add_color_count_objective(ColoringEncoding* enc) {
  Objective objective;
  for (int j = 0; j < enc->num_colors; ++j) {
    objective.terms.push_back({1, Lit::positive(enc->y(j))});
  }
  enc->formula.set_objective(std::move(objective));
}

ColoringEncoding encode_coloring(const Graph& graph, int max_colors,
                                 const SbpOptions& sbps) {
  return encode_impl(graph, max_colors, sbps, /*with_objective=*/true,
                     /*pure_cnf=*/false);
}

ColoringEncoding encode_k_coloring(const Graph& graph, int max_colors,
                                   const SbpOptions& sbps) {
  return encode_impl(graph, max_colors, sbps, /*with_objective=*/false,
                     /*pure_cnf=*/false);
}

ColoringEncoding encode_k_coloring_cnf(const Graph& graph, int max_colors,
                                       const SbpOptions& sbps) {
  return encode_impl(graph, max_colors, sbps, /*with_objective=*/false,
                     /*pure_cnf=*/true);
}

std::vector<int> ColoringEncoding::decode(std::span<const LBool> model) const {
  std::vector<int> colors(static_cast<std::size_t>(num_vertices), -1);
  for (int i = 0; i < num_vertices; ++i) {
    for (int j = 0; j < num_colors; ++j) {
      if (model[static_cast<std::size_t>(x(i, j))] == LBool::True) {
        if (colors[static_cast<std::size_t>(i)] != -1) {
          throw std::runtime_error("decode: vertex with two colors");
        }
        colors[static_cast<std::size_t>(i)] = j;
      }
    }
    if (colors[static_cast<std::size_t>(i)] == -1) {
      throw std::runtime_error("decode: uncolored vertex");
    }
  }
  return colors;
}

std::vector<int> ColoringEncoding::decode_checked(
    const Graph& graph, std::span<const LBool> model,
    std::optional<std::int64_t> objective_value) const {
  std::vector<int> colors = decode(model);
  if (!graph.is_proper_coloring(colors)) {
    throw std::logic_error("solver returned an improper coloring");
  }
  if (objective_value && Graph::count_colors(colors) != *objective_value) {
    throw std::logic_error("objective value disagrees with coloring");
  }
  return colors;
}

}  // namespace symcolor
