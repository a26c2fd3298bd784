// Table 2 reproduction: formula sizes and symmetry statistics per
// instance-independent SBP construction, totaled over the 20-instance
// suite at the paper's K (default 20).
//
// Columns mirror the paper: #V (variables), #CL (CNF clauses), #PB
// (0-1 ILP constraints: one per vertex equality plus CA inequalities),
// #S (sum of symmetry-group orders — accumulated in log10), #G (symmetry
// generators), and Saucy-stand-in detection time.

#include <cstdio>

#include "coloring/encoder.h"
#include "graph/generators.h"
#include "support.h"
#include "symmetry/shatter.h"
#include "util/text.h"

using namespace symcolor;
using namespace symcolor::bench;

int main() {
  const Budgets budgets = load_budgets();
  std::printf("Table 2: formula sizes and symmetry statistics, K = %d\n",
              budgets.max_colors);
  std::printf("(totals over 20 instances; detection budget %.1fs/instance)\n\n",
              budgets.detect_seconds);

  TablePrinter table({10, 10, 11, 9, 12, 7, 10, 9});
  table.row({"SBP", "#Vars", "#Clauses", "#PB", "#Sym", "#Gen", "DetTime",
             "complete"});
  table.rule();

  const auto suite = dimacs_suite();
  for (const SbpOptions& sbps : paper_sbp_rows()) {
    long long vars = 0, clauses = 0, pb = 0, generators = 0;
    std::vector<double> log_orders;
    double detect_time = 0.0;
    bool all_complete = true;
    for (const Instance& inst : suite) {
      const ColoringEncoding enc =
          encode_coloring(inst.graph, budgets.max_colors, sbps);
      vars += enc.formula.num_vars();
      clauses += enc.formula.num_clauses();
      pb += enc.ilp_equalities + enc.sbp_pb_constraints;
      const SolveBudget budget(budgets.detect_seconds);
      const SymmetryInfo info = detect_symmetries(enc.formula, budget);
      generators += static_cast<long long>(info.generators.size());
      log_orders.push_back(info.log10_order);
      detect_time += info.detect_seconds;
      all_complete = all_complete && info.complete;
    }
    table.row({sbps.any() ? sbps.label() : "no SBPs", std::to_string(vars),
               std::to_string(clauses), std::to_string(pb),
               format_pow10(log10_sum(log_orders)), std::to_string(generators),
               format_seconds(detect_time), all_complete ? "yes" : "partial"});
  }
  table.rule();
  std::printf(
      "\nPaper shape (Table 2, K=20): no-SBPs 437K vars / 777K clauses /\n"
      "3193 PB / 1.1e+168 symmetries / 994 generators / 185 s; NU and CA\n"
      "drop symmetries to 5e+149 and detection to ~49 s; LI kills every\n"
      "symmetry (0 generators); SC barely changes the counts.\n");
  return 0;
}
