#include "util/report.h"

#include <cstdio>

namespace symcolor {

std::string format_solver_line(const SolverStats& stats) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "solver: %lld conflicts, %lld decisions, %lld propagations",
                static_cast<long long>(stats.conflicts),
                static_cast<long long>(stats.decisions),
                static_cast<long long>(stats.propagations));
  return buf;
}

std::string format_workers_line(const SolverStats& stats) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "workers: %lld conflicts, %lld decisions, %lld propagations, "
                "%lld exported, %lld imported",
                static_cast<long long>(stats.conflicts),
                static_cast<long long>(stats.decisions),
                static_cast<long long>(stats.propagations),
                static_cast<long long>(stats.exported_clauses),
                static_cast<long long>(stats.imported_clauses));
  return buf;
}

std::string format_cubes_line(const SolverStats& stats) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "cubes: %lld dealt, %lld refuted, %lld siblings pruned, "
                "%lld splits",
                static_cast<long long>(stats.cubes_dealt),
                static_cast<long long>(stats.cubes_refuted),
                static_cast<long long>(stats.cube_siblings_pruned),
                static_cast<long long>(stats.cube_splits));
  return buf;
}

std::string format_budget_line(BudgetTrip tripped, const SolverStats& stats) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "budget: tripped=%s exits deadline=%lld conflicts=%lld "
                "propagations=%lld interrupt=%lld",
                budget_trip_name(tripped),
                static_cast<long long>(stats.deadline_exits),
                static_cast<long long>(stats.conflict_budget_exits),
                static_cast<long long>(stats.prop_budget_exits),
                static_cast<long long>(stats.interrupt_exits));
  return buf;
}

std::string format_incremental_line(const SolverStats& stats) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "incremental: %lld chrono backtracks, "
                "%lld saved propagations",
                static_cast<long long>(stats.chrono_backtracks),
                static_cast<long long>(stats.saved_propagations));
  return buf;
}

}  // namespace symcolor
