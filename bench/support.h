#pragma once
// Shared infrastructure for the table-reproduction benchmarks.
//
// Budgets: the paper ran on Sun-Blade-1000 workstations with 1000-second
// timeouts; the default budgets here are scaled down so the entire bench
// directory completes on a laptop in minutes. Environment knobs:
//   SYMCOLOR_TIMEOUT        per-solve budget in seconds   (default 0.5)
//   SYMCOLOR_DETECT_TIMEOUT symmetry-detection budget     (default 1.5)
//                           for the standalone detect_symmetries calls of
//                           bench_table2 and the ablation binaries only.
//                           run_instance (Tables 3/4/5) never passes it on:
//                           there detection shares the per-solve budget.
//   SYMCOLOR_K              color limit for Table 2/3     (default 20)
//   SYMCOLOR_FULL=1         lift budgets to paper scale (1000 s / 60 s)
// Trends (who wins, by what factor, where timeouts appear) are the
// reproduction target, not absolute runtimes.

#include <cstdint>
#include <string>
#include <vector>

#include "coloring/exact_colorer.h"
#include "graph/generators.h"

namespace symcolor::bench {

/// Budgets from the environment (see above).
struct Budgets {
  double solve_seconds = 0.5;
  double detect_seconds = 1.5;
  int max_colors = 20;
};
Budgets load_budgets();

/// One row of a Table 3/4/5-style experiment: run a full pipeline and
/// capture result, runtime and timeout status.
struct RunOutcome {
  bool solved = false;      ///< proved Optimal or Infeasible within budget
  double seconds = 0.0;
  int num_colors = -1;      ///< -1 when not solved or infeasible
  ColoringOutcome detail;
};

RunOutcome run_instance(const Graph& graph, const SbpOptions& sbps,
                        bool instance_dependent, SolverKind solver,
                        const Budgets& budgets);

/// Simple fixed-width table printer for paper-style output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<int> widths) : widths_(std::move(widths)) {}
  void row(const std::vector<std::string>& cells) const;
  void rule() const;

 private:
  std::vector<int> widths_;
};

/// "12.3" or "T/O"; also "x/y solved" helpers used by the summary rows.
std::string time_cell(double seconds, bool solved);

/// log-sum of group orders given per-instance log10 values (the paper's
/// "#S" column sums astronomically large counts; we accumulate in log
/// space, exact for the dominant term).
double log10_sum(const std::vector<double>& log10_values);

}  // namespace symcolor::bench
