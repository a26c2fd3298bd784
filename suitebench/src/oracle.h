#pragma once
// Answer oracle: every solve the benchmark makes is checked here, and any
// failure counts against the run's error_frac.

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"
#include "pb/optimizer.h"

namespace suitebench {

/// What is known about an instance before it is solved.
struct Expectation {
  /// Chromatic number: pinned by the generator or proved by an independent
  /// reference solve; -1 when unknown.
  int chi = -1;
  /// A proven lower bound on the chromatic number (clique or pinned chi).
  int chi_floor = 0;
};

/// One pipeline answer in the terms the oracle checks.
struct Answer {
  symcolor::OptStatus status = symcolor::OptStatus::Unknown;
  /// Colors of the returned coloring; -1 when there is none.
  int num_colors = -1;
  /// Proven lower bound reported with an unproven answer.
  std::int64_t lower_bound = 0;
  std::span<const int> coloring;
  /// Color bound K of the encoding; 0 when unbounded (the SAT loop).
  int max_colors = 0;
  /// The safety wall limit stopped the solve.
  bool wall_tripped = false;
};

/// Empty when `answer` is consistent with `expect` on `graph`; otherwise
/// a one-line reason.
std::string check_answer(const symcolor::Graph& graph, const Expectation& expect,
                         const Answer& answer);

}  // namespace suitebench
