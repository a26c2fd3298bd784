// Ablation: objective search strategy — the
// paper's Section 4.1 procedure sketch contrasts linear strengthening
// with binary search over the color bound; core-guided search (UNSAT-core
// lower-bound lifting) is the modern third option. All three now run on
// ONE persistent engine driven by selector-ladder assumptions, so learned
// clauses survive every probe in every strategy.

#include <cstdio>

#include "graph/generators.h"
#include "support.h"

using namespace symcolor;
using namespace symcolor::bench;

int main() {
  const Budgets budgets = load_budgets();
  std::printf(
      "Ablation: linear vs binary vs core-guided objective search "
      "(PBS II, NU+SC)\n\n");

  std::vector<Instance> instances;
  instances.push_back({"myciel4", make_myciel_dimacs(4), 5});
  instances.push_back({"myciel5", make_myciel_dimacs(5), 6});
  instances.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  instances.push_back({"queen6_6", make_queen_graph(6, 6), 7});
  instances.push_back({"huck", make_book_graph(74, 602, 11, 0x4C8), 11});

  TablePrinter table({12, 12, 9, 12, 9, 12, 9});
  table.row({"Instance", "linear", "(chi)", "binary", "(chi)", "core",
             "(chi)"});
  table.rule();
  for (const Instance& inst : instances) {
    ColoringOptions base;
    base.max_colors = budgets.max_colors;
    base.sbps = SbpOptions::nu_sc();
    base.instance_dependent_sbps = true;
    base.time_budget_seconds = budgets.solve_seconds;

    ColoringOptions linear = base;
    ColoringOptions binary = base;
    binary.search = SearchStrategy::Binary;
    ColoringOptions core = base;
    core.search = SearchStrategy::CoreGuided;

    const ColoringOutcome a = solve_coloring(inst.graph, linear);
    const ColoringOutcome b = solve_coloring(inst.graph, binary);
    const ColoringOutcome c = solve_coloring(inst.graph, core);
    table.row({inst.name, time_cell(a.total_seconds, a.solved()),
               a.num_colors > 0 ? std::to_string(a.num_colors) : "-",
               time_cell(b.total_seconds, b.solved()),
               b.num_colors > 0 ? std::to_string(b.num_colors) : "-",
               time_cell(c.total_seconds, c.solved()),
               c.num_colors > 0 ? std::to_string(c.num_colors) : "-"});
  }
  table.rule();
  std::printf(
      "\nExpected: identical chromatic numbers everywhere — all three\n"
      "strategies drive one persistent engine through selector-ladder\n"
      "assumptions, so learned clauses survive every probe. They differ\n"
      "in probe count and in which side of the bound the probes land on:\n"
      "binary needs the fewest probes from a loose initial bound, linear\n"
      "probes are each easy (SAT until the last), core-guided converges\n"
      "from below on instances whose optimum sits far under the bound.\n");
  return 0;
}
