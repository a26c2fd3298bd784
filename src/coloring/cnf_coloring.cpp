#include "coloring/cnf_coloring.h"

#include <algorithm>
#include <stdexcept>

#include "cnf/pb_to_cnf.h"
#include "coloring/heuristics.h"
#include "coloring/sbp.h"
#include "graph/clique.h"

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

SatLoopResult solve_coloring_sat_loop(const Graph& graph,
                                      const SatLoopOptions& options) {
  Timer timer;
  // The whole loop runs under one budget: a child of the caller's when one
  // is supplied (inheriting its deadline/interrupt and clamped to its
  // counted caps), a fresh one otherwise.
  const SolveBudget budget =
      options.budget != nullptr
          ? options.budget->child(options.time_budget_seconds,
                                  options.conflict_budget, options.prop_budget)
          : SolveBudget(options.time_budget_seconds, options.conflict_budget,
                        options.prop_budget);
  SatLoopResult result;

  if (graph.num_vertices() == 0) {
    result.status = OptStatus::Optimal;
    result.num_colors = 0;
    result.seconds = timer.seconds();
    return result;
  }

  // Bounds (Section 4.1's procedure): a feasible DSATUR coloring above, a
  // clique below. max_clique starts from the greedy clique and runs its
  // branch and bound only when that clique is smaller than the DSATUR
  // count, stopping once it meets it. Its node cap is the only limit that
  // may bind on its own, so the bound is the same on every machine.
  result.coloring = dsatur_coloring(graph);
  result.num_colors = Graph::count_colors(result.coloring);  // feasible
  result.clique = max_clique(graph, budget, nullptr, kSatLoopCliqueNodeCap,
                             result.num_colors);
  result.lower_bound = std::max<int>(1, static_cast<int>(result.clique.size()));
  result.status = OptStatus::Optimal;

  // A clique that meets the DSATUR coloring closes the run by bounds.
  if (result.lower_bound < result.num_colors) {
    // One encoding at the upper bound with NU forced on: color usage is
    // then a prefix, and minimize() drives the color-count objective
    // through its selector ladder on one persistent engine, so learned
    // clauses survive every K-query. solver.portfolio_threads is the one
    // thread knob; the factory picks the backend from it.
    SbpOptions sbps = options.sbps;
    sbps.nu = true;
    ColoringEncoding enc =
        encode_k_coloring_cnf(graph, result.num_colors, options.amo, sbps);
    // Clique pinning (Van Gelder 2008): clique[i] takes color i. Any
    // proper coloring can be relabeled to agree, and under NU the pinned
    // colors are used and form the prefix, so no K-query changes its
    // answer. SC, CA and LI fix colors their own way, so they turn
    // pinning off.
    if (!options.sbps.sc && !options.sbps.ca && !options.sbps.li) {
      for (std::size_t i = 0; i < result.clique.size(); ++i) {
        enc.formula.add_unit(
            Lit::positive(enc.x(result.clique[i], static_cast<int>(i))));
      }
    }
    add_color_count_objective(&enc);
    const OptResult r = minimize(std::move(enc.formula), options.solver,
                                 budget, options.search, result.lower_bound);
    // The DSATUR coloring satisfies the encoding, so Infeasible is a bug.
    if (r.status == OptStatus::Infeasible) {
      throw std::logic_error("DSATUR-colorable encoding refuted");
    }
    result.sat_calls = r.probes;
    result.solver_stats = r.stats;
    result.tripped = r.tripped;
    result.lower_bound = static_cast<int>(r.lower_bound);  // >= the hint
    if (!r.model.empty() && r.best_value < result.num_colors) {
      result.coloring = enc.decode_checked(graph, r.model, r.best_value);
      result.num_colors = static_cast<int>(r.best_value);
    }
    // Graceful degradation: the DSATUR seed guarantees a feasible
    // coloring, so a budgeted exit is Feasible with the best one found
    // and the tightest proven lower bound.
    if (r.status != OptStatus::Optimal) result.status = OptStatus::Feasible;
  }

  result.budget_exhausted = result.status != OptStatus::Optimal;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace symcolor
