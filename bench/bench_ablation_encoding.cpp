// Ablation: native-PB optimization vs the pure-CNF SAT loop (paper
// Section 2.3's trade-off).
//
// The paper argues 0-1 ILP solvers "do not require this extra step
// [repeated SAT calls] and moreover tend to provide better performance";
// this bench quantifies both halves: the size of the formula each route
// solves, its solver calls, and end-to-end optimization times.

#include <cstdio>

#include "coloring/exact_colorer.h"
#include "graph/generators.h"
#include "pb/solver_profiles.h"
#include "support.h"
#include "util/text.h"

using namespace symcolor;
using namespace symcolor::bench;

int main() {
  const Budgets budgets = load_budgets();
  std::printf("Ablation: native PB optimization vs pure-CNF SAT loop\n");
  std::printf("(per-run budget %.1fs; SBPs: NU+SC + instance-dependent for "
              "the PB flow,\n NU+SC for the CNF loop)\n\n",
              budgets.solve_seconds);

  std::vector<Instance> instances;
  instances.push_back({"myciel3", make_myciel_dimacs(3), 4});
  instances.push_back({"myciel4", make_myciel_dimacs(4), 5});
  instances.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  instances.push_back({"queen6_6", make_queen_graph(6, 6), 7});
  instances.push_back({"jean", make_book_graph(80, 508, 10, 0x1EA4), 10});

  // `calls` and `clauses` come from each run's own ColoringOutcome: the
  // solver calls of its minimize() and the clauses of the formula it
  // solved ("-" when the bounds closed the run before encoding).
  auto clauses_cell = [](const ColoringOutcome& r) {
    return r.formula_clauses > 0 ? std::to_string(r.formula_clauses) : "-";
  };
  TablePrinter table({12, 14, 10, 9, 8, 10});
  table.row({"Instance", "pipeline", "time", "chi", "calls", "clauses"});
  table.rule();
  for (const Instance& inst : instances) {
    {
      const RunOutcome r = run_instance(inst.graph, SbpOptions::nu_sc(),
                                        /*instance_dependent=*/true,
                                        SolverKind::PbsII, budgets);
      table.row({inst.name, "PB-native", time_cell(r.seconds, r.solved),
                 r.num_colors > 0 ? std::to_string(r.num_colors) : "-",
                 std::to_string(r.detail.sat_calls), clauses_cell(r.detail)});
    }
    {
      ColoringOptions options;
      options.sbps = SbpOptions::nu_sc();
      options.time_budget_seconds = budgets.solve_seconds;
      const ColoringOutcome r = solve_coloring_sat_loop(inst.graph, options);
      table.row({inst.name, "SAT-loop",
                 time_cell(r.total_seconds, r.status == OptStatus::Optimal),
                 r.num_colors > 0 ? std::to_string(r.num_colors) : "-",
                 std::to_string(r.sat_calls), clauses_cell(r)});
    }
    table.rule();
  }
  std::printf(
      "\nExpected: identical chromatic numbers in both rows. The PB-native\n"
      "flow encodes at K = max_colors, states each vertex's exactly-one as\n"
      "a PB row (not counted in `clauses`) and adds Shatter's lex-leader\n"
      "clauses. The SAT loop encodes at the DSATUR bound with the clique\n"
      "pinned and a commander at-most-one per vertex, so it solves a\n"
      "smaller formula in fewer calls, and it closes on bounds alone where\n"
      "the clique meets DSATUR (\"-\" clauses, 0 calls).\n");
  return 0;
}
