// Ablation: native-PB optimization vs the pure-CNF SAT loop (paper
// Section 2.3's trade-off), across at-most-one encodings.
//
// The paper argues 0-1 ILP solvers "do not require this extra step
// [repeated SAT calls] and moreover tend to provide better performance";
// this bench quantifies both halves: encoding sizes per AMO choice and
// end-to-end optimization times.

#include <cstdio>

#include "coloring/cnf_coloring.h"
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

  TablePrinter table({12, 14, 10, 9, 8, 10});
  table.row({"Instance", "pipeline", "time", "chi", "calls", "clauses"});
  table.rule();
  for (const Instance& inst : instances) {
    {
      const RunOutcome r = run_instance(inst.graph, SbpOptions::nu_sc(),
                                        /*instance_dependent=*/true,
                                        SolverKind::PbsII, budgets);
      table.row({inst.name, "PB-native", time_cell(r.seconds, r.solved),
                 r.num_colors > 0 ? std::to_string(r.num_colors) : "-", "1",
                 std::to_string(r.detail.formula_clauses)});
    }
    for (const AmoEncoding amo :
         {AmoEncoding::Pairwise, AmoEncoding::Sequential,
          AmoEncoding::Commander}) {
      ColoringOptions options;
      options.amo = amo;
      options.sbps = SbpOptions::nu_sc();
      options.time_budget_seconds = budgets.solve_seconds;
      const ColoringOutcome r = solve_coloring_sat_loop(inst.graph, options);
      const ColoringEncoding probe = encode_k_coloring_cnf(
          inst.graph, budgets.max_colors, amo, options.sbps);
      table.row({inst.name,
                 std::string("SAT-") + amo_encoding_name(amo),
                 time_cell(r.total_seconds, r.status == OptStatus::Optimal),
                 r.num_colors > 0 ? std::to_string(r.num_colors) : "-",
                 std::to_string(r.sat_calls),
                 std::to_string(probe.formula.num_clauses())});
    }
    table.rule();
  }
  std::printf(
      "\nExpected: identical chromatic numbers everywhere; the PB-native\n"
      "flow avoids the K-update loop and the per-vertex AMO expansion\n"
      "(one counter constraint vs hundreds of clauses), matching the\n"
      "paper's argument for the 0-1 ILP route. The SAT loop profits from\n"
      "starting at the DSATUR bound, so easy instances stay close.\n");
  return 0;
}
