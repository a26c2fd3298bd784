#pragma once
// The named workloads and the two ways of running one of their solves:
// through the library's public entry point (the measured, untraced run),
// or as a replica that calls each layer's public functions in the order
// the entry point does, with a span around each call (the traced run).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "coloring/cnf_coloring.h"
#include "coloring/exact_colorer.h"
#include "oracle.h"
#include "suite.h"
#include "trace.h"

namespace suitebench {

/// Encoding bound K of every native run (the paper's Tables 3/4).
inline constexpr int kMaxColors = 20;
/// Per-instance conflict cap of suite-solver and satloop. Counted, so
/// outcomes repeat exactly; low enough that a pass stays a few seconds.
inline constexpr std::int64_t kConflictCap = 10000;
/// Per-solve wall limit; tripping it is an error, never a result.
inline constexpr double kSafetyWallSeconds = 60.0;

/// One workload: every suite instance, solved with one configuration.
struct Workload {
  std::string name;
  std::vector<SuiteInstance> instances;
  /// What the oracle knows about instances[i].
  std::vector<Expectation> expect;
  /// Pipeline: the SAT loop with `loop`, else the native PB pipeline
  /// (solve_coloring) with `native`.
  bool satloop = false;
  symcolor::ColoringOptions native;
  symcolor::SatLoopOptions loop;
  /// The instance of the warm-up solve (tiny, same configuration).
  int warmup = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The workload's instances and configuration for `seed`; throws on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

const char* status_name(symcolor::OptStatus status);

struct SolveRecord {
  std::string instance;
  symcolor::OptStatus status = symcolor::OptStatus::Unknown;
  int num_colors = -1;
  std::int64_t lower_bound = 0;
  int max_colors = 0;  ///< 0 for the SAT loop (no encoding bound)
  double seconds = 0.0;       ///< CPU seconds of the solve (cpu_clock.h)
  double wall_seconds = 0.0;  ///< wall seconds of the same solve
  std::int64_t conflicts = -1;  ///< native pipeline only
  int sat_calls = -1;           ///< SAT loop only
  std::string error;            ///< oracle failure or exception; empty if OK
  /// Raw per-layer counts (traced run only).
  std::vector<std::pair<std::string, double>> counters;
};

/// Solve instances[index] through solve_coloring or
/// solve_coloring_sat_loop and check the answer.
SolveRecord run_solve(const Workload& workload, int index);

/// The same solve as a traced replica of the entry point.
SolveRecord run_solve_traced(const Workload& workload, int index,
                             Tracer& tracer);

}  // namespace suitebench
