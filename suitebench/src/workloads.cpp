#include "workloads.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "automorphism/search.h"
#include "coloring/heuristics.h"
#include "graph/clique.h"
#include "pb/solver_profiles.h"
#include "symmetry/formula_graph.h"
#include "symmetry/lexleader.h"
#include "cpu_clock.h"
#include "util/timer.h"

namespace suitebench {

using namespace symcolor;

namespace {

using Counters = std::vector<std::pair<std::string, double>>;

void add_stats(Counters& c, const SolverStats& s) {
  const auto put = [&](const char* name, std::int64_t v) {
    c.emplace_back(name, static_cast<double>(v));
  };
  put("conflicts", s.conflicts);
  put("decisions", s.decisions);
  put("propagations", s.propagations);
  put("restarts", s.restarts);
  put("learned_clauses", s.learned_clauses);
  put("lbd_sum", s.lbd_sum);
  put("learned_pbs", s.learned_pbs);
  put("pb_resolutions", s.pb_resolutions);
  put("pb_fallbacks", s.pb_fallbacks);
  put("arena_collections", s.arena_collections);
  put("deleted_clauses", s.deleted_clauses);
  put("inprocess_rounds", s.inprocess_rounds);
  put("vivified_clauses", s.vivified_clauses);
  put("chrono_backtracks", s.chrono_backtracks);
  put("reused_trail_literals", s.reused_trail_literals);
}

/// Run `solve`, which fills `record` and returns the oracle's Answer, and
/// turn an exception or an oracle miss into record.error.
template <typename Solve>
SolveRecord checked(const Workload& w, int index, Solve&& solve) {
  SolveRecord record;
  const SuiteInstance& inst = w.instances[static_cast<std::size_t>(index)];
  record.instance = inst.name;
  record.max_colors = w.satloop ? 0 : w.native.max_colors;
  std::vector<int> coloring;
  Timer timer;
  CpuTimer cpu;
  try {
    Answer answer = solve(inst.graph, record, coloring);
    record.seconds = cpu.seconds();
    record.wall_seconds = timer.seconds();
    answer.coloring = coloring;
    answer.max_colors = record.max_colors;
    record.status = answer.status;
    record.num_colors = answer.num_colors;
    record.lower_bound = answer.lower_bound;
    record.error = check_answer(inst.graph,
                                w.expect[static_cast<std::size_t>(index)], answer);
  } catch (const std::exception& e) {
    record.seconds = cpu.seconds();
    record.wall_seconds = timer.seconds();
    record.error = std::string("threw: ") + e.what();
  }
  return record;
}

/// Replica of exact_colorer's run_pipeline (optimization) from public
/// layer functions, for the options the workloads use.
Answer native_traced(const Graph& graph, const ColoringOptions& o,
                     Tracer& tracer, const std::string& name,
                     SolveRecord& record, std::vector<int>& coloring) {
  if (o.presimplify || o.solver == SolverKind::GenericIlp || o.budget) {
    throw std::logic_error("replica covers the benchmark's options only");
  }
  Counters& c = record.counters;
  ScopedSpan root(tracer, "pipeline", name);
  const SolveBudget budget(o.time_budget_seconds, o.conflict_budget,
                           o.prop_budget);
  Answer answer;

  ColoringEncoding enc = [&] {
    ScopedSpan s(tracer, "coloring.encode", name);
    return encode_coloring(graph, o.max_colors, o.sbps);
  }();
  c.emplace_back("formula_vars", enc.formula.num_vars());
  c.emplace_back("formula_clauses", enc.formula.num_clauses());

  if (o.instance_dependent_sbps) {
    const FormulaGraph fg = [&] {
      ScopedSpan s(tracer, "symmetry.graph_build", name);
      return build_formula_graph(enc.formula);
    }();
    const AutomorphismResult aut = [&] {
      ScopedSpan s(tracer, "automorphism.search", name);
      return find_automorphisms(fg.graph, fg.vertex_colors, budget.deadline());
    }();
    if (!aut.complete) answer.wall_tripped = true;
    std::vector<Perm> generators;
    int spurious = 0;
    {
      ScopedSpan s(tracer, "symmetry.verify", name);
      for (const Perm& graph_perm : aut.generators) {
        Perm lit_perm = literal_permutation(fg, graph_perm);
        if (lit_perm.empty() || !is_formula_symmetry(enc.formula, lit_perm)) {
          ++spurious;
          continue;
        }
        generators.push_back(std::move(lit_perm));
      }
    }
    const LexLeaderStats lex = [&] {
      ScopedSpan s(tracer, "symmetry.lexleader", name);
      return add_lex_leader_sbps(enc.formula, generators, o.sbp_max_support);
    }();
    c.emplace_back("graph_vertices", fg.graph.num_vertices());
    c.emplace_back("aut_nodes", static_cast<double>(aut.nodes));
    c.emplace_back("aut_leaves", static_cast<double>(aut.leaves));
    c.emplace_back("aut_bad_leaves", static_cast<double>(aut.bad_leaves));
    c.emplace_back("generators", static_cast<double>(generators.size()));
    c.emplace_back("spurious", spurious);
    c.emplace_back("sbp_clauses", lex.clauses_added);
  }

  const OptResult result = [&] {
    ScopedSpan s(tracer, "pb.solve", name);
    SolverConfig config = profile_config(o.solver);
    config.portfolio_threads = o.threads;
    config.cube_depth = o.cube_depth;
    config.inprocess = o.inprocess;
    if (o.chrono_threshold >= 0) config.chrono_threshold = o.chrono_threshold;
    return minimize(enc.formula, config, budget, o.search);
  }();
  c.emplace_back("probes", result.probes);
  add_stats(c, result.stats);
  record.conflicts = result.stats.conflicts;
  answer.status = result.status;
  answer.lower_bound = result.lower_bound;
  if (result.tripped == BudgetTrip::Deadline) answer.wall_tripped = true;
  if (result.budget_exhausted) {
    ScopedSpan s(tracer, "graph.clique", name);
    answer.lower_bound =
        std::max(answer.lower_bound,
                 static_cast<std::int64_t>(greedy_clique(graph).size()));
  }
  if (!result.model.empty()) {
    ScopedSpan s(tracer, "coloring.decode", name);
    coloring = enc.decode(result.model);
    if (!graph.is_proper_coloring(coloring)) {
      throw std::logic_error("solver returned an improper coloring");
    }
    answer.num_colors = Graph::count_colors(coloring);
  }
  return answer;
}

/// The SAT loop is one public call. Its DSATUR and clique bounds and its
/// first CNF encoding are timed standalone ahead of it, and the returned
/// coloring is verified as run_pipeline verifies its own.
Answer satloop_traced(const Graph& graph, const SatLoopOptions& o,
                      Tracer& tracer, const std::string& name,
                      SolveRecord& record, std::vector<int>& coloring) {
  Counters& c = record.counters;
  ScopedSpan root(tracer, "pipeline", name);
  const int upper = [&] {
    ScopedSpan s(tracer, "coloring.dsatur", name);
    return Graph::count_colors(dsatur_coloring(graph));
  }();
  const int clique = [&] {
    ScopedSpan s(tracer, "graph.clique", name);
    return static_cast<int>(greedy_clique(graph).size());
  }();
  {
    ScopedSpan s(tracer, "coloring.cnf_encode", name);
    (void)encode_k_coloring_cnf(graph, upper, o.amo, o.sbps);
  }
  SatLoopResult r = [&] {
    ScopedSpan s(tracer, "coloring.satloop_solve", name);
    return solve_coloring_sat_loop(graph, o);
  }();
  c.emplace_back("dsatur_colors", upper);
  c.emplace_back("clique_size", clique);
  c.emplace_back("sat_calls", r.sat_calls);
  c.emplace_back("bounds_closed", r.sat_calls == 0 ? 1 : 0);
  record.sat_calls = r.sat_calls;
  Answer answer;
  answer.status = r.status;
  answer.lower_bound = r.lower_bound;
  answer.wall_tripped = r.tripped == BudgetTrip::Deadline;
  {
    ScopedSpan s(tracer, "coloring.decode", name);
    coloring = std::move(r.coloring);
    if (!graph.is_proper_coloring(coloring)) {
      throw std::logic_error("SAT loop returned an improper coloring");
    }
    answer.num_colors = Graph::count_colors(coloring);
  }
  return answer;
}

}  // namespace

const char* status_name(OptStatus status) {
  switch (status) {
    case OptStatus::Optimal: return "optimal";
    case OptStatus::Feasible: return "feasible";
    case OptStatus::Infeasible: return "infeasible";
    case OptStatus::Unknown: return "unknown";
  }
  return "?";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"suite-sbp", "suite-solver",
                                                 "satloop"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.native.max_colors = kMaxColors;
  w.native.time_budget_seconds = kSafetyWallSeconds;
  w.loop.time_budget_seconds = kSafetyWallSeconds;
  if (name == "suite-sbp") {
    // The paper's best Table 3 row: SC + Shatter under PBS II, uncapped.
    w.native.sbps = SbpOptions::sc_only();
    w.native.instance_dependent_sbps = true;
    w.native.solver = SolverKind::PbsII;
  } else if (name == "suite-solver") {
    w.native.sbps = SbpOptions::nu_sc();
    w.native.solver = SolverKind::Galena;
    w.native.conflict_budget = kConflictCap;
  } else if (name == "satloop") {
    // Otherwise the CLI's --satloop defaults.
    w.satloop = true;
    w.loop.conflict_budget = kConflictCap;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.instances = make_suite(seed);
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    const SuiteInstance& inst = w.instances[i];
    w.expect.push_back({inst.chi, inst.chi_floor});
    if (inst.name == "myciel3") w.warmup = static_cast<int>(i);
  }
  return w;
}

SolveRecord run_solve(const Workload& w, int index) {
  return checked(w, index, [&](const Graph& graph, SolveRecord& record,
                               std::vector<int>& coloring) {
    Answer answer;
    if (w.satloop) {
      SatLoopResult r = solve_coloring_sat_loop(graph, w.loop);
      record.sat_calls = r.sat_calls;
      answer.status = r.status;
      answer.num_colors = r.num_colors;
      answer.lower_bound = r.lower_bound;
      answer.wall_tripped = r.tripped == BudgetTrip::Deadline;
      coloring = std::move(r.coloring);
      return answer;
    }
    ColoringOutcome r = solve_coloring(graph, w.native);
    record.conflicts = r.solver_stats.conflicts;
    answer.status = r.status;
    answer.num_colors = r.num_colors;
    answer.lower_bound = r.lower_bound;
    answer.wall_tripped = r.tripped == BudgetTrip::Deadline ||
                          (r.symmetry && !r.symmetry->complete);
    coloring = std::move(r.coloring);
    return answer;
  });
}

SolveRecord run_solve_traced(const Workload& w, int index, Tracer& tracer) {
  return checked(w, index, [&](const Graph& graph, SolveRecord& record,
                               std::vector<int>& coloring) {
    const std::string& name = w.instances[static_cast<std::size_t>(index)].name;
    return w.satloop
               ? satloop_traced(graph, w.loop, tracer, name, record, coloring)
               : native_traced(graph, w.native, tracer, name, record, coloring);
  });
}

}  // namespace suitebench
