// Ablation: lex-leader SBP construction size.
// Compares the linear tautology-free chain (Aloul et al. 2003) against
// the auxiliary-free quadratic weakening (Crawford-style) and truncated
// chains, on encoded coloring instances: SBP size, residual work, and
// solve time.

#include <cstdio>

#include "coloring/encoder.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "support.h"
#include "symmetry/lexleader.h"
#include "symmetry/shatter.h"
#include "util/text.h"

using namespace symcolor;
using namespace symcolor::bench;

namespace {

enum class SbpVariant { Linear, Quadratic, Truncated10 };

const char* variant_name(SbpVariant v) {
  switch (v) {
    case SbpVariant::Linear: return "linear";
    case SbpVariant::Quadratic: return "quadratic";
    case SbpVariant::Truncated10: return "trunc-10";
  }
  return "?";
}

}  // namespace

int main() {
  const Budgets budgets = load_budgets();
  std::printf("Ablation: lex-leader SBP construction (linear vs quadratic "
              "vs truncated)\n\n");

  std::vector<Instance> instances;
  instances.push_back({"myciel4", make_myciel_dimacs(4), 5});
  instances.push_back({"myciel5", make_myciel_dimacs(5), 6});
  instances.push_back({"queen5_5", make_queen_graph(5, 5), 5});
  instances.push_back({"queen6_6", make_queen_graph(6, 6), 7});

  TablePrinter table({12, 11, 10, 10, 12, 9});
  table.row({"Instance", "variant", "clauses", "aux vars", "solve", "(chi)"});
  table.rule();
  for (const Instance& inst : instances) {
    for (const SbpVariant variant :
         {SbpVariant::Linear, SbpVariant::Quadratic, SbpVariant::Truncated10}) {
      ColoringEncoding enc =
          encode_coloring(inst.graph, budgets.max_colors, {});
      const SymmetryInfo info =
          detect_symmetries(enc.formula, SolveBudget(budgets.detect_seconds));
      LexLeaderStats stats;
      switch (variant) {
        case SbpVariant::Linear:
          stats = add_lex_leader_sbps(enc.formula, info.generators);
          break;
        case SbpVariant::Quadratic:
          stats = add_lex_leader_sbps_quadratic(enc.formula, info.generators);
          break;
        case SbpVariant::Truncated10:
          stats = add_lex_leader_sbps(enc.formula, info.generators, 10);
          break;
      }
      const OptResult r =
          minimize(enc.formula, profile_config(SolverKind::PbsII),
                   SolveBudget(budgets.solve_seconds), SearchStrategy::Linear);
      table.row({inst.name, variant_name(variant),
                 std::to_string(stats.clauses_added),
                 std::to_string(stats.vars_added),
                 time_cell(r.seconds, r.solved()),
                 r.status == OptStatus::Optimal
                     ? std::to_string(r.best_value)
                     : std::string("-")});
    }
  }
  table.rule();
  std::printf(
      "\nExpected: the linear chain adds ~3 clauses + 1 var per support\n"
      "element and solves fastest; the quadratic variant explodes in\n"
      "literals on long supports; truncation trades completeness for\n"
      "size with mild slowdown.\n");
  return 0;
}
