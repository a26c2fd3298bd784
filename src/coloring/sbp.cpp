#include "coloring/sbp.h"

#include <string>

#include "coloring/encoder.h"

namespace symcolor {
namespace {

/// NU (3.1): y_{k+1} -> y_k for 1 <= k < K. A solution using a null color
/// before a non-null one can always be re-sorted, so optimality is
/// preserved; only the all-nulls-last representative survives.
void add_nu(ColoringEncoding* enc) {
  Formula& f = enc->formula;
  const int before = f.num_clauses();
  for (int k = 0; k + 1 < enc->num_colors; ++k) {
    f.add_implication(Lit::positive(enc->y(k + 1)), Lit::positive(enc->y(k)));
  }
  enc->sbp_clauses += f.num_clauses() - before;
}

/// CA (3.2): |class k| >= |class k+1| as K-1 PB constraints
/// sum_i x(i,k) - sum_i x(i,k+1) >= 0. Subsumes NU (a null color has
/// cardinality 0 and must trail every non-null one).
void add_ca(const Graph& graph, ColoringEncoding* enc) {
  Formula& f = enc->formula;
  const int n = graph.num_vertices();
  for (int k = 0; k + 1 < enc->num_colors; ++k) {
    std::vector<PbTerm> terms;
    terms.reserve(static_cast<std::size_t>(2 * n));
    for (int i = 0; i < n; ++i) {
      terms.push_back({1, Lit::positive(enc->x(i, k))});
      terms.push_back({-1, Lit::positive(enc->x(i, k + 1))});
    }
    f.add_pb(PbConstraint::at_least(std::move(terms), 0));
    ++enc->sbp_pb_constraints;
  }
}

/// LI (3.3): complete value-symmetry breaking. The lowest vertex index
/// colored k must increase with k (ascending convention, matching the
/// paper's Figure 1(e): the class containing the smallest vertex gets
/// color 1).
///
/// Auxiliary variables:
///   s(i,k) — some vertex with index <= i has color k (monotone chain);
///   V(i,k) — vertex i is the lowest-index vertex with color k.
/// Clauses per (i,k):
///   x(i,k) -> s(i,k)
///   s(i-1,k) -> s(i,k)                                  [i > 0]
///   V(i,k) -> x(i,k)
///   V(i,k) -> ~s(i-1,k)                                 [i > 0]
///   x(i,k) & ~s(i-1,k) -> V(i,k)
///   V(i,k) -> s(i-1,k-1)    (ordering: color k-1 seen strictly earlier)
/// plus y(k) -> OR_i V(i,k) per color (paper parity; redundant given the
/// definitions but harmless).
void add_li(ColoringEncoding* enc) {
  Formula& f = enc->formula;
  const int n = enc->num_vertices;
  const int k_colors = enc->num_colors;

  const int vars_before = f.num_vars();
  const int clauses_before = f.num_clauses();

  // Allocate s and V blocks (vertex-major like the x block).
  const Var s0 = f.new_vars(n * k_colors);
  const Var v0 = f.new_vars(n * k_colors);
  auto s = [&](int i, int k) { return s0 + i * k_colors + k; };
  auto v = [&](int i, int k) { return v0 + i * k_colors + k; };

  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < k_colors; ++k) {
      const Lit x_ik = Lit::positive(enc->x(i, k));
      const Lit s_ik = Lit::positive(s(i, k));
      const Lit v_ik = Lit::positive(v(i, k));
      f.add_implication(x_ik, s_ik);
      f.add_implication(v_ik, x_ik);
      if (i > 0) {
        const Lit s_prev = Lit::positive(s(i - 1, k));
        f.add_implication(s_prev, s_ik);
        // Exact semantics both ways: without the upper bound the solver
        // could set s spuriously true and slip past the ordering clause.
        f.add_clause({~s_ik, x_ik, s_prev});
        f.add_clause({~v_ik, ~s_prev});
        f.add_clause({~x_ik, s_prev, v_ik});
      } else {
        f.add_clause({~s_ik, x_ik});
        // Vertex 0: lowest for its color by definition.
        f.add_clause({~x_ik, v_ik});
      }
      if (k > 0) {
        if (i > 0) {
          f.add_implication(v_ik, Lit::positive(s(i - 1, k - 1)));
        } else {
          // No vertex precedes vertex 0: it can only take color 0.
          f.add_clause({~v_ik});
        }
      }
    }
  }
  for (int k = 0; k < k_colors; ++k) {
    std::vector<Lit> lowest_exists{Lit::negative(enc->y(k))};
    for (int i = 0; i < n; ++i) {
      lowest_exists.push_back(Lit::positive(v(i, k)));
    }
    f.add_clause(lowest_exists);
  }

  enc->sbp_vars += f.num_vars() - vars_before;
  enc->sbp_clauses += f.num_clauses() - clauses_before;
}

/// LI, paper-literal variant: the construction exactly as Section 3.3
/// states it — nK existentially-chosen "lowest index" indicators V(i,k)
/// with pairwise exclusions instead of seen-chains, and the paper's
/// descending ordering clause V(i,k) -> OR_{j>i} V(j,k-1) (the lowest
/// index of color k-1 lies strictly *after* that of color k). Complete
/// per-partition value-symmetry breaking like the chained version, but
/// quadratic in size and weak under unit propagation — the shape the
/// paper measured.
void add_li_paper_literal(ColoringEncoding* enc) {
  Formula& f = enc->formula;
  const int n = enc->num_vertices;
  const int k_colors = enc->num_colors;

  const int vars_before = f.num_vars();
  const int clauses_before = f.num_clauses();

  const Var v0 = f.new_vars(n * k_colors);
  auto v = [&](int i, int k) { return v0 + i * k_colors + k; };

  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < k_colors; ++k) {
      const Lit v_ik = Lit::positive(v(i, k));
      f.add_implication(v_ik, Lit::positive(enc->x(i, k)));
      // No earlier vertex carries color k (pairwise, the quadratic part).
      for (int j = 0; j < i; ++j) {
        f.add_clause({~v_ik, Lit::negative(enc->x(j, k))});
      }
      // Ordering (descending): some later vertex is lowest for color k-1.
      if (k > 0) {
        std::vector<Lit> later{~v_ik};
        for (int j = i + 1; j < n; ++j) {
          later.push_back(Lit::positive(v(j, k - 1)));
        }
        f.add_clause(later);
      }
    }
  }
  for (int k = 0; k < k_colors; ++k) {
    std::vector<Lit> lowest_exists{Lit::negative(enc->y(k))};
    for (int i = 0; i < n; ++i) lowest_exists.push_back(Lit::positive(v(i, k)));
    f.add_clause(lowest_exists);
  }

  enc->sbp_vars += f.num_vars() - vars_before;
  enc->sbp_clauses += f.num_clauses() - clauses_before;
}

/// SC (3.4): unit clauses pinning colors on the highest-degree vertex
/// and its highest-degree neighbour.
void add_sc(const std::vector<int>& pinned, ColoringEncoding* enc) {
  Formula& f = enc->formula;
  const int before = f.num_clauses();
  for (std::size_t c = 0; c < pinned.size(); ++c) {
    f.add_unit(Lit::positive(enc->x(pinned[c], static_cast<int>(c))));
  }
  enc->sbp_clauses += f.num_clauses() - before;
}

}  // namespace

std::pair<int, int> selective_coloring_pins(const Graph& graph) {
  const int n = graph.num_vertices();
  if (n == 0) return {-1, -1};
  int first = 0;
  for (int v = 1; v < n; ++v) {
    if (graph.degree(v) > graph.degree(first)) first = v;
  }
  int second = -1;
  for (const int u : graph.neighbors(first)) {
    if (second < 0 || graph.degree(u) > graph.degree(second)) second = u;
  }
  return {first, second};
}

ColorFreedom color_freedom(const Graph& graph, int num_colors,
                           const SbpOptions& sbps) {
  ColorFreedom freedom;
  if (sbps.sc) {
    const auto [first, second] = selective_coloring_pins(graph);
    if (first >= 0) freedom.pinned.push_back(first);
    if (second >= 0 && num_colors >= 2) freedom.pinned.push_back(second);
  }
  if (!sbps.nu && !sbps.ca && !sbps.li) {
    freedom.first_free = static_cast<int>(freedom.pinned.size());
  }
  return freedom;
}

void add_instance_independent_sbps(const Graph& graph, ColoringEncoding* enc,
                                   const SbpOptions& sbps) {
  if (sbps.nu) add_nu(enc);
  if (sbps.ca) add_ca(graph, enc);
  if (sbps.li) {
    if (sbps.li_paper_literal) {
      add_li_paper_literal(enc);
    } else {
      add_li(enc);
    }
  }
  if (sbps.sc) {
    add_sc(color_freedom(graph, enc->num_colors, sbps).pinned, enc);
  }
}

}  // namespace symcolor
