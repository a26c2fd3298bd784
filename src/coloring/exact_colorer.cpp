#include "coloring/exact_colorer.h"

#include <algorithm>
#include <optional>

#include "cnf/simplify.h"
#include "graph/clique.h"

namespace symcolor {
namespace {

ColoringOutcome run_pipeline(const Graph& graph, const ColoringOptions& options,
                             bool optimization) {
  Timer total;
  // One budget covers the pipeline end to end — symmetry detection AND
  // solving. A child of the caller's budget when one is supplied (so an
  // external interrupt() or tighter cap preempts us), fresh otherwise.
  const SolveBudget budget =
      options.budget != nullptr
          ? options.budget->child(options.time_budget_seconds,
                                  options.conflict_budget, options.prop_budget)
          : SolveBudget(options.time_budget_seconds, options.conflict_budget,
                        options.prop_budget);

  ColoringOutcome outcome;
  Timer encode_timer;
  ColoringEncoding enc = optimization
                             ? encode_coloring(graph, options.max_colors,
                                               options.sbps)
                             : encode_k_coloring(graph, options.max_colors,
                                                 options.sbps);
  outcome.encode_seconds = encode_timer.seconds();

  if (options.instance_dependent_sbps) {
    const ShatterStats stats =
        shatter(enc.formula, budget.deadline(), options.sbp_max_support);
    outcome.symmetry = stats.symmetry;
    outcome.inst_dep_sbp_clauses = stats.sbp.clauses_added;
  }

  if (options.presimplify) {
    enc.formula = simplify(enc.formula);
  }

  outcome.formula_vars = enc.formula.num_vars();
  outcome.formula_clauses = enc.formula.num_clauses();
  outcome.formula_pb = enc.formula.num_pb();

  Timer solve_timer;
  OptResult result;
  if (options.solver == SolverKind::GenericIlp) {
    result = solve_generic_ilp(enc.formula, budget);
  } else {
    SolverConfig config = profile_config(options.solver);
    config.portfolio_threads = options.threads;
    config.cube_depth = options.cube_depth;
    if (options.chrono_threshold >= 0) {
      config.chrono_threshold = options.chrono_threshold;
    }
    result = optimization
                 ? minimize(std::move(enc.formula), config, budget,
                            options.search)
                 : solve_decision(enc.formula, config, budget);
  }
  outcome.solve_seconds = solve_timer.seconds();
  outcome.solver_stats = result.stats;
  outcome.solver_stats_all = result.agg_stats;
  outcome.status = result.status;
  outcome.lower_bound = result.lower_bound;
  if (optimization && result.budget_exhausted) {
    // A clique is a chromatic-number proof too: a budgeted exit before the
    // objective search proved anything would otherwise degrade to the
    // trivial bound 0 even on graphs with large obvious cliques.
    outcome.lower_bound =
        std::max(outcome.lower_bound,
                 static_cast<std::int64_t>(greedy_clique(graph).size()));
  }
  outcome.tripped = result.tripped;
  outcome.budget_exhausted = result.budget_exhausted;

  if (!result.model.empty()) {
    outcome.coloring = enc.decode_checked(
        graph, result.model,
        optimization ? std::optional(result.best_value) : std::nullopt);
    outcome.num_colors = Graph::count_colors(outcome.coloring);
  }
  outcome.total_seconds = total.seconds();
  return outcome;
}

}  // namespace

ColoringOutcome solve_coloring(const Graph& graph,
                               const ColoringOptions& options) {
  return run_pipeline(graph, options, /*optimization=*/true);
}

ColoringOutcome solve_k_coloring(const Graph& graph,
                                 const ColoringOptions& options) {
  return run_pipeline(graph, options, /*optimization=*/false);
}

}  // namespace symcolor
