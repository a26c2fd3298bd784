// Ablation: dynamic vs static symmetry breaking.
//
// The paper's techniques are *static* — predicates added before search —
// and Section 2.2 reviews the dynamic alternatives (SBDD, GE trees,
// Benhamou's NECSP value symmetries). This bench puts the simplest
// dynamic scheme (one-fresh-color-per-node in a backtracking NECSP
// colorer) against the paper's static pipeline, plus the same CSP search
// with the rule disabled to show what value symmetry costs when nobody
// breaks it.

#include <cstdio>

#include "coloring/csp_colorer.h"
#include "graph/generators.h"
#include "support.h"
#include "util/text.h"

using namespace symcolor;
using namespace symcolor::bench;

int main() {
  const Budgets budgets = load_budgets();
  std::printf("Ablation: dynamic value-symmetry breaking (NECSP search) vs\n"
              "static SBPs (reduction flow)  [budget %.1fs/run]\n\n",
              budgets.solve_seconds);

  std::vector<Instance> instances;
  instances.push_back({"myciel3", make_myciel_dimacs(3), 4});
  instances.push_back({"myciel4", make_myciel_dimacs(4), 5});
  instances.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  instances.push_back({"queen6_6", make_queen_graph(6, 6), 7});
  instances.push_back({"huck", make_book_graph(74, 602, 11, 0x4C8), 11});

  TablePrinter table({12, 22, 12, 8, 14});
  table.row({"Instance", "method", "time", "chi", "nodes"});
  table.rule();
  for (const Instance& inst : instances) {
    {
      const SolveBudget budget(budgets.solve_seconds);
      const CspColorerResult r =
          csp_min_coloring(inst.graph, /*break_value_symmetry=*/true, budget);
      table.row({inst.name, "CSP dynamic", time_cell(r.seconds, r.completed),
                 std::to_string(Graph::count_colors(r.coloring)),
                 std::to_string(r.nodes)});
    }
    {
      const SolveBudget budget(budgets.solve_seconds);
      const CspColorerResult r = csp_min_coloring(
          inst.graph, /*break_value_symmetry=*/false, budget);
      table.row({inst.name, "CSP no-sym-breaking",
                 time_cell(r.seconds, r.completed),
                 std::to_string(Graph::count_colors(r.coloring)),
                 std::to_string(r.nodes)});
    }
    {
      const RunOutcome r = run_instance(inst.graph, SbpOptions::sc_only(),
                                        /*instance_dependent=*/true,
                                        SolverKind::PbsII, budgets);
      table.row({inst.name, "static SBP reduction",
                 time_cell(r.seconds, r.solved),
                 r.num_colors > 0 ? std::to_string(r.num_colors) : "-",
                 std::to_string(r.detail.solver_stats.decisions)});
    }
    table.rule();
  }
  std::printf(
      "\nExpected: disabling the dynamic fresh-color rule explodes the CSP\n"
      "node count by roughly the K! value symmetry; with it, the dedicated\n"
      "search is competitive on easy instances (the paper's Section 4.3\n"
      "observation about Benhamou's solver) while the reduction flow keeps\n"
      "up despite being generic — its selling point.\n");
  return 0;
}
