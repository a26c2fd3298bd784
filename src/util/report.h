#pragma once
// Shared front-end reporting conventions for symcolor_cli and
// symcolor_serve: exit codes and the exact `--stats` line formats. Both
// tools emit the SAME strings and the SAME exit-code mapping so that
// scripts and CI smoke checks can parse either without special cases.

#include <string>

#include "sat/solver_engine.h"
#include "util/budget.h"

namespace symcolor {

/// Process exit codes shared by every front end:
///   0 — optimal / SAT answer proved
///   1 — infeasible / UNSAT proved
///   2 — a resource budget or interrupt stopped the run (degraded output)
///   3 — usage or input error
inline constexpr int kExitSolved = 0;
inline constexpr int kExitInfeasible = 1;
inline constexpr int kExitStopped = 2;
inline constexpr int kExitUsage = 3;

/// "solver: N conflicts, N decisions, N propagations" — the headline
/// search-effort line both tools print under --stats.
[[nodiscard]] std::string format_solver_line(const SolverStats& stats);

/// "workers: N conflicts, N decisions, N propagations, N exported, N
/// imported" — the aggregated all-workers view of a parallel solve
/// (portfolio or cube-and-conquer): the sum over every worker, losers
/// included, where the `solver:` line shows only the winner.
[[nodiscard]] std::string format_workers_line(const SolverStats& stats);

/// "cubes: N dealt, N refuted, N siblings pruned, N splits" — the
/// cube-and-conquer schedule summary, printed only when the solve
/// actually dealt cubes (cubes_dealt > 0).
[[nodiscard]] std::string format_cubes_line(const SolverStats& stats);

/// "budget: tripped=<name> exits deadline=N conflicts=N propagations=N
/// interrupt=N" — the resource-control line, with the trip-counter names
/// shared verbatim between the CLI and the server.
[[nodiscard]] std::string format_budget_line(BudgetTrip tripped,
                                             const SolverStats& stats);

/// "incremental: N chrono backtracks, N saved propagations" — the
/// chronological-backtracking summary, printed only when at least one
/// chronological backtrack fired (never with --chrono 0).
[[nodiscard]] std::string format_incremental_line(const SolverStats& stats);

}  // namespace symcolor
