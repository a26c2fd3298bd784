// Section 4.3 reproduction: comparison with problem-specific exact
// colorers on the shared data points (myciel3/4/5, DSJC125.1, queens).
// The DSATUR branch and bound stands in for the Coudert/Benhamou
// dedicated algorithms; the reduction flow runs with its best
// configuration from Table 3 (SC + instance-dependent SBPs, Pueblo for
// myciel like the paper, PBS II otherwise).

#include <cstdio>

#include "coloring/dsatur_bnb.h"
#include "graph/generators.h"
#include "support.h"
#include "util/text.h"

using namespace symcolor;
using namespace symcolor::bench;

int main() {
  const Budgets budgets = load_budgets();
  std::printf("Section 4.3: reduction flow vs problem-specific baseline\n");
  std::printf("(budget %.1fs per run)\n\n", budgets.solve_seconds);

  std::vector<Instance> instances;
  instances.push_back({"myciel3", make_myciel_dimacs(3), 4});
  instances.push_back({"myciel4", make_myciel_dimacs(4), 5});
  instances.push_back({"myciel5", make_myciel_dimacs(5), 6});
  instances.push_back({"DSJC125.1", make_random_gnm(125, 736, 0xD51), -1});
  for (const Instance& q : queens_suite()) instances.push_back(q);

  TablePrinter table({14, 7, 14, 9, 14, 9});
  table.row({"Instance", "chi", "reduction", "(chi)", "dsatur-bnb", "(chi)"});
  table.rule();
  for (const Instance& inst : instances) {
    const RunOutcome flow =
        run_instance(inst.graph, SbpOptions::sc_only(),
                     /*instance_dependent=*/true, SolverKind::PbsII, budgets);
    const SolveBudget budget(budgets.solve_seconds);
    const DsaturBnbResult bnb = dsatur_branch_and_bound(inst.graph, budget);
    table.row({inst.name,
               inst.chromatic_number > 0 ? std::to_string(inst.chromatic_number)
                                         : "?",
               time_cell(flow.seconds, flow.solved),
               flow.num_colors > 0 ? std::to_string(flow.num_colors) : "-",
               time_cell(bnb.seconds, bnb.proved_optimal),
               std::to_string(bnb.num_colors)});
  }
  table.rule();
  std::printf(
      "\nPaper shape (Section 4.3): the generic reduction flow is\n"
      "competitive on the shared data points (myciel3-5: 0.01/0.06/1.80 s\n"
      "vs Coudert's 0.01/0.02/4.17 s) while dedicated solvers keep an edge\n"
      "on larger instances; the same relation should hold here.\n");
  return 0;
}
