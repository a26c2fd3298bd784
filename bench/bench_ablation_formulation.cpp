// Ablation: assignment formulation vs the Mehrotra-Trick independent-set
// (set-cover) formulation (paper Section 2.1).
//
// The paper credits Mehrotra & Trick's formulation with "inherently
// breaking problem symmetries" at the price of exponentially many
// variables. This bench measures both claims on instances small enough
// to enumerate maximal independent sets: the symmetry-group order of
// each encoded formula, its size, and the solve time.

#include <cstdio>

#include "coloring/set_cover_formulation.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "support.h"
#include "symmetry/shatter.h"
#include "util/text.h"

using namespace symcolor;
using namespace symcolor::bench;

int main() {
  const Budgets budgets = load_budgets();
  std::printf("Ablation: assignment vs independent-set (Mehrotra-Trick) "
              "formulation\n");
  std::printf("(K = 8 for the assignment side; set cap 100000; budget "
              "%.1fs/solve)\n\n",
              budgets.solve_seconds);

  std::vector<Instance> instances;
  instances.push_back({"myciel3", make_myciel_dimacs(3), 4});
  instances.push_back({"myciel4", make_myciel_dimacs(4), 5});
  instances.push_back({"queen4_4", make_queen_graph(4, 4), 5});
  instances.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  instances.push_back({"rand12", make_random_gnm(12, 30, 77), -1});

  TablePrinter table({12, 13, 9, 11, 12, 10, 7});
  table.row({"Instance", "formulation", "vars", "constrs", "#Sym", "time",
             "chi"});
  table.rule();
  for (const Instance& inst : instances) {
    {
      ColoringEncoding enc = encode_coloring(inst.graph, 8);
      const SymmetryInfo sym =
          detect_symmetries(enc.formula, SolveBudget(budgets.detect_seconds));
      const OptResult r =
          minimize(enc.formula, profile_config(SolverKind::PbsII),
                   SolveBudget(budgets.solve_seconds), SearchStrategy::Linear);
      table.row({inst.name, "assignment",
                 std::to_string(enc.formula.num_vars()),
                 std::to_string(enc.formula.num_clauses() +
                                enc.formula.num_pb()),
                 format_pow10(sym.log10_order), time_cell(r.seconds, r.solved()),
                 r.status == OptStatus::Optimal ? std::to_string(r.best_value)
                                                : std::string("-")});
    }
    {
      const auto enc = encode_set_cover_coloring(inst.graph);
      if (!enc) {
        table.row({inst.name, "indep-set", "-", "-", "-", "cap hit", "-"});
        continue;
      }
      const SymmetryInfo sym =
          detect_symmetries(enc->formula, SolveBudget(budgets.detect_seconds));
      const OptResult r =
          minimize(enc->formula, profile_config(SolverKind::PbsII),
                   SolveBudget(budgets.solve_seconds), SearchStrategy::Linear);
      table.row({inst.name, "indep-set",
                 std::to_string(enc->formula.num_vars()),
                 std::to_string(enc->formula.num_clauses()),
                 format_pow10(sym.log10_order), time_cell(r.seconds, r.solved()),
                 r.status == OptStatus::Optimal ? std::to_string(r.best_value)
                                                : std::string("-")});
    }
    table.rule();
  }
  std::printf(
      "\nExpected: the assignment formulation carries the K! color\n"
      "symmetry (#Sym astronomically large) while the independent-set\n"
      "formulation's group reduces to the graph's own automorphisms —\n"
      "the paper's reason why SBPs do not apply to Mehrotra-Trick. Its\n"
      "variable count, however, is the number of maximal independent\n"
      "sets, which explodes with graph size.\n");
  return 0;
}
