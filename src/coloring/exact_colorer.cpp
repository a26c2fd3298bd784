#include "coloring/exact_colorer.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "coloring/color_symmetry.h"
#include "coloring/heuristics.h"
#include "graph/clique.h"

namespace symcolor {
namespace {

/// Stage 1, the procedure of the paper's Section 4.1: a DSATUR coloring
/// above and a clique below, kept in `outcome` as its incumbent and its
/// lower-bound certificate. max_clique starts from the greedy clique, whose
/// restarts stop once one meets the DSATUR count, and branches only while
/// that clique is smaller than the count, stopping once it meets it. Its
/// node cap is the only limit that may bind on its own, so the bound is the
/// same on every machine. Returns true when the two meet: the DSATUR
/// coloring is then optimal.
bool bounds_meet(const Graph& graph, const SolveBudget& budget,
                 ColoringOutcome& outcome) {
  if (graph.num_vertices() == 0) {
    outcome.num_colors = 0;
    return true;
  }
  outcome.coloring = dsatur_coloring(graph);
  outcome.num_colors = Graph::count_colors(outcome.coloring);
  outcome.clique = max_clique(graph, budget, nullptr, kSatLoopCliqueNodeCap,
                              outcome.num_colors);
  outcome.lower_bound = static_cast<std::int64_t>(outcome.clique.size());
  return outcome.lower_bound >= outcome.num_colors;
}

/// Stage 2 of the native plans: the paper's 0-1 ILP encoding at
/// K = options.max_colors.
ColoringEncoding encode_pb_at_k(const Graph& graph,
                                const ColoringOptions& options,
                                const ColoringOutcome& /*bounds*/) {
  return encode_k_coloring(graph, options.max_colors, options.sbps);
}

/// Stage 2 of the SAT loop: CNF at the DSATUR bound with NU forced on, so
/// color usage is a prefix and every K-query is one assumption, and the
/// clique pinned unless SC, CA or LI is selected (see the header).
ColoringEncoding encode_cnf_at_upper_bound(const Graph& graph,
                                           const ColoringOptions& options,
                                           const ColoringOutcome& bounds) {
  SbpOptions sbps = options.sbps;
  sbps.nu = true;
  ColoringEncoding enc = encode_k_coloring_cnf(graph, bounds.num_colors, sbps);
  if (!options.sbps.sc && !options.sbps.ca && !options.sbps.li) {
    for (std::size_t i = 0; i < bounds.clique.size(); ++i) {
      enc.formula.add_unit(
          Lit::positive(enc.x(bounds.clique[i], static_cast<int>(i))));
    }
  }
  return enc;
}

/// An entry point's choice at each stage that has one. Every plan runs
/// the stages in the same order under the same budget.
struct Plan {
  /// Stage 1 runs: the bounds seed the incumbent and the lower bound, and
  /// close the run when they meet.
  bool bounds;
  /// Stage 2's constraint encoding; reads the bounds when stage 1 ran.
  ColoringEncoding (*encode)(const Graph&, const ColoringOptions&,
                             const ColoringOutcome& bounds);
  /// Stages 2 and 4: add MIN sum_j y(j) and minimize() it, or only ask
  /// solve_decision() whether the encoding is satisfiable.
  bool minimize;
};

constexpr Plan kOptimizePlan{false, encode_pb_at_k, true};
constexpr Plan kDecidePlan{false, encode_pb_at_k, false};
constexpr Plan kSatLoopPlan{true, encode_cnf_at_upper_bound, true};

/// Stage 4: the generic ILP, or one CDCL engine configured from the
/// options' solver profile and parallel knobs.
OptResult solve_stage(Formula formula, const ColoringOptions& options,
                      bool optimize, const SolveBudget& budget,
                      std::int64_t lower_hint) {
  if (options.solver == SolverKind::GenericIlp) {
    return solve_generic_ilp(formula, budget);
  }
  SolverConfig config = profile_config(options.solver);
  config.portfolio_threads = options.threads;
  if (options.chrono_threshold >= 0) {
    config.chrono_threshold = options.chrono_threshold;
  }
  return optimize ? minimize(std::move(formula), config, budget,
                             options.search, lower_hint)
                  : solve_decision(formula, config, budget);
}

ColoringOutcome run_pipeline(const Graph& graph, const ColoringOptions& options,
                             const Plan& plan) {
  if (options.presimplify) {
    throw std::invalid_argument("the pipeline has no pre-solve simplifier");
  }
  if (options.cube_depth != 0) {
    throw std::invalid_argument("the parallel engine has one cube depth");
  }
  Timer total;
  // One budget covers the pipeline end to end, every stage included. A
  // child of the caller's budget when one is supplied (so an external
  // interrupt() or tighter cap preempts us), fresh otherwise.
  const SolveBudget budget =
      options.budget != nullptr
          ? options.budget->child(options.time_budget_seconds,
                                  options.conflict_budget, options.prop_budget)
          : SolveBudget(options.time_budget_seconds, options.conflict_budget,
                        options.prop_budget);
  ColoringOutcome outcome;

  // 1. Bounds.
  std::int64_t lower_hint = std::numeric_limits<std::int64_t>::min();
  if (plan.bounds) {
    if (bounds_meet(graph, budget, outcome)) {
      outcome.status = OptStatus::Optimal;
      outcome.total_seconds = total.seconds();
      return outcome;
    }
    lower_hint = outcome.lower_bound;
  }
  const bool has_incumbent = !outcome.coloring.empty();

  // 2. Encode.
  Timer encode_timer;
  ColoringEncoding enc = plan.encode(graph, options, outcome);
  if (plan.minimize) add_color_count_objective(&enc);
  outcome.encode_seconds = encode_timer.seconds();

  // 3. Symmetry.
  if (options.instance_dependent_sbps) {
    SymmetryInfo symmetry =
        detect_coloring_symmetries(graph, enc, options.sbps, budget);
    outcome.inst_dep_sbp_clauses =
        add_lex_leader_sbps(enc.formula, symmetry.generators,
                            options.sbp_max_support)
            .clauses_added;
    outcome.symmetry = std::move(symmetry);
  }

  outcome.formula_vars = enc.formula.num_vars();
  outcome.formula_clauses = enc.formula.num_clauses();
  outcome.formula_pb = enc.formula.num_pb();

  // 4. Solve.
  Timer solve_timer;
  const OptResult result = solve_stage(std::move(enc.formula), options,
                                       plan.minimize, budget, lower_hint);
  outcome.solve_seconds = solve_timer.seconds();
  outcome.sat_calls = result.probes;
  outcome.solver_stats = result.stats;
  outcome.solver_stats_all = result.agg_stats;
  outcome.tripped = result.tripped;
  outcome.budget_exhausted = result.budget_exhausted;

  // 5. Decode and check.
  if (has_incumbent && result.status == OptStatus::Infeasible) {
    throw std::logic_error("encoding refuted although the bounds colored it");
  }
  // With an incumbent in hand, a budgeted exit is Feasible even when the
  // solve found no model of its own.
  outcome.status = has_incumbent && result.status == OptStatus::Unknown
                       ? OptStatus::Feasible
                       : result.status;
  outcome.lower_bound = result.lower_bound;  // >= lower_hint
  if (plan.minimize && result.budget_exhausted) {
    // A clique is a chromatic-number proof too: a budgeted exit before the
    // objective search proved anything would otherwise degrade to the
    // trivial bound 0 even on graphs with large obvious cliques.
    if (outcome.clique.empty()) outcome.clique = greedy_clique(graph);
    outcome.lower_bound = std::max(
        outcome.lower_bound, static_cast<std::int64_t>(outcome.clique.size()));
  }
  if (!result.model.empty() &&
      (!has_incumbent || result.best_value < outcome.num_colors)) {
    outcome.coloring = enc.decode_checked(
        graph, result.model,
        plan.minimize ? std::optional(result.best_value) : std::nullopt);
    outcome.num_colors = Graph::count_colors(outcome.coloring);
  }
  outcome.total_seconds = total.seconds();
  return outcome;
}

}  // namespace

ColoringOutcome solve_coloring(const Graph& graph,
                               const ColoringOptions& options) {
  return run_pipeline(graph, options, kOptimizePlan);
}

ColoringOutcome solve_k_coloring(const Graph& graph,
                                 const ColoringOptions& options) {
  return run_pipeline(graph, options, kDecidePlan);
}

ColoringOutcome solve_coloring_sat_loop(const Graph& graph,
                                        const ColoringOptions& options) {
  if (options.instance_dependent_sbps) {
    // A lex-leader clause from a generator that moves a y(k) is unsound
    // under minimize()'s assumptions on the y(k).
    throw std::invalid_argument("the SAT loop does not run Shatter");
  }
  if (options.solver == SolverKind::GenericIlp) {
    throw std::invalid_argument("the SAT loop needs a CDCL solver profile");
  }
  return run_pipeline(graph, options, kSatLoopPlan);
}

}  // namespace symcolor
