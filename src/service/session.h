#pragma once
// Session vocabulary of the solve service (service/solve_service.h).
//
// A session is one solve request's whole lifetime inside a SolveService:
// admitted (or rejected) at submit, queued FIFO, run on a pool worker
// under its own child SolveBudget, and finished with EXACTLY ONE terminal
// SessionResult. The outcome taxonomy is closed — every path through the
// service, including overload, cancellation, worker crashes, and
// drain/shutdown, lands in one of these:
//
//   Sat       definitive answer with a witness: a model of a clause
//             request, or the coloring of a coloring request (the
//             optimum when it minimized — `colors` then holds chi)
//   Unsat     definitive refutation (UNSAT / not K-colorable)
//   Feasible  budget ran out with an incumbent coloring: chi lies in
//             [lower_bound, colors] (the driver's graceful-degradation
//             contract, surfaced per session)
//   Degraded  budget ran out before any answer; `trip` says which bound
//             (deadline / conflicts / propagations / interrupt) and the
//             model is empty — never fabricated
//   Cancelled cancel() preempted the session (async interrupt); may still
//             carry an incumbent model/bound if one was found first
//   Rejected  admission control refused the request — queue saturated
//             (reject-newest with a retry_after_seconds hint) or the
//             service is shutting down; `reject_reason` says which
//   Failed    the solve threw; the exception is contained by the per-
//             session barrier (`error` carries the message) and the
//             worker and service keep running
//
// SessionResult::well_formed() is the machine-checkable version of the
// contract above; the stress tests assert it on every outcome.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnf/formula.h"
#include "coloring/exact_colorer.h"
#include "sat/cdcl.h"
#include "util/budget.h"

namespace symcolor {

/// Opaque session handle. Ids are never reused within one service.
using SessionId = std::uint64_t;
inline constexpr SessionId kInvalidSession = 0;

enum class SessionOutcome : std::uint8_t {
  Sat,
  Unsat,
  Feasible,
  Degraded,
  Cancelled,
  Rejected,
  Failed,
};

/// Stable lowercase name for protocol/log output ("sat", "rejected", ...).
[[nodiscard]] const char* session_outcome_name(SessionOutcome outcome) noexcept;

enum class RejectReason : std::uint8_t { None, QueueFull, ShuttingDown };

[[nodiscard]] const char* reject_reason_name(RejectReason reason) noexcept;

/// The coloring driver's entry points share this signature:
/// solve_coloring, solve_k_coloring and solve_coloring_sat_loop.
using ColoringEntry = ColoringOutcome (*)(const Graph&, const ColoringOptions&);

/// One solve request: a clause request (`formula`, solved by one engine
/// under `config`) or a coloring request (`graph`, run through `entry`
/// under `options`). The formula or graph is shared and immutable;
/// everything else is per-request.
struct SolveRequest {
  std::shared_ptr<const Formula> formula;
  /// The clause request's solver knobs — including portfolio_threads and
  /// the fault_injection test hook; the service isolates whatever happens
  /// under them to this session.
  SolverConfig config;
  std::shared_ptr<const Graph> graph;
  /// The coloring request's options. The service points options.budget at
  /// the session budget, so cancel(), the deadline, the counted caps and
  /// the service interrupt reach every stage of the driver.
  ColoringOptions options;
  ColoringEntry entry = solve_coloring;
  /// Per-request budget dimensions, chained under the service-wide
  /// budget; <= 0 means unlimited (the service default may still apply a
  /// timeout). The deadline starts ticking at SUBMIT time, so time spent
  /// queued counts against the request — that is what makes FIFO
  /// scheduling deadline-fair and lets workers shed dead-on-arrival work.
  double timeout_seconds = 0.0;
  std::int64_t conflict_budget = 0;
  std::int64_t prop_budget = 0;
};

/// The terminal result of a session. Exactly one of these is delivered
/// per submitted request, via SolveService::wait()/wait_any().
struct SessionResult {
  SessionOutcome outcome = SessionOutcome::Failed;
  RejectReason reject_reason = RejectReason::None;
  /// Backpressure hint accompanying Rejected/QueueFull: an estimate of
  /// when the queue will have drained enough to retry.
  double retry_after_seconds = 0.0;
  /// Which budget dimension ended the session early (Degraded/Cancelled,
  /// and Feasible exits); None on definitive answers.
  BudgetTrip trip = BudgetTrip::None;
  /// Tightest proven lower bound on chi (minimizing coloring requests).
  std::int64_t lower_bound = 0;
  /// A clause request's satisfying assignment (Sat only).
  std::vector<LBool> model;
  /// A coloring request's per-vertex colors: the answer on Sat, the
  /// incumbent on Feasible and possibly on Cancelled. Like `model`, never
  /// fabricated on Degraded/Rejected/Failed.
  std::vector<int> coloring;
  SolverStats stats;
  /// Failed only: the contained exception's message.
  std::string error;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;

  /// The machine-checkable outcome contract: witnesses only where
  /// promised (a clause Sat carries a model, a coloring Sat or Feasible a
  /// coloring, never both), trips recorded on every budgeted exit, reasons
  /// on every rejection, messages on every failure. Stress tests assert
  /// this on every delivered result.
  [[nodiscard]] bool well_formed() const noexcept {
    const bool one_witness = model.empty() != coloring.empty();
    const bool no_witness = model.empty() && coloring.empty();
    switch (outcome) {
      case SessionOutcome::Sat:
        return one_witness;
      case SessionOutcome::Unsat:
        return no_witness;
      case SessionOutcome::Feasible:
        return !coloring.empty() && model.empty() && trip != BudgetTrip::None;
      case SessionOutcome::Degraded:
        return no_witness && trip != BudgetTrip::None;
      case SessionOutcome::Cancelled:
        return trip != BudgetTrip::None;
      case SessionOutcome::Rejected:
        return reject_reason != RejectReason::None && no_witness;
      case SessionOutcome::Failed:
        return !error.empty() && no_witness;
    }
    return false;
  }
};

}  // namespace symcolor
