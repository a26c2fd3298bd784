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
//   Sat       definitive model (decision SAT, or minimize proved optimal —
//             best_value then holds the optimum)
//   Unsat     definitive refutation (decision UNSAT / minimize infeasible)
//   Feasible  budget ran out with an incumbent: `model` holds the best
//             solution found, the optimum lies in [lower_bound, best_value]
//             (minimize()'s graceful-degradation contract, surfaced per
//             session)
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
#include "pb/optimizer.h"
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

/// One solve request. The formula is shared (requests against a cached
/// base formula all point at the same immutable object); everything else
/// is per-request.
struct SolveRequest {
  std::shared_ptr<const Formula> formula;
  /// Per-request solver knobs — including portfolio_threads and the
  /// fault_injection test hook; the service isolates whatever happens
  /// under them to this session.
  SolverConfig config;
  /// Per-request budget dimensions, chained under the service-wide
  /// budget; <= 0 means unlimited (the service default may still apply a
  /// timeout). The deadline starts ticking at SUBMIT time, so time spent
  /// queued counts against the request — that is what makes FIFO
  /// scheduling deadline-fair and lets workers shed dead-on-arrival work.
  double timeout_seconds = 0.0;
  std::int64_t conflict_budget = 0;
  std::int64_t prop_budget = 0;
  /// Minimize the formula's objective instead of a decision query
  /// (ignored, with a decision fallback, when the formula has none).
  bool minimize = false;
  SearchStrategy strategy = SearchStrategy::Linear;
  /// Non-empty: warm-start the decision path from the service's
  /// EngineCache under this key (clone of a resident preprocessed
  /// master). The minimize path ignores it (the optimizer owns its
  /// engine lifecycle).
  std::string cache_key;
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
  /// Objective value of `model` (minimize sessions with a model only).
  std::int64_t best_value = 0;
  /// Tightest proven lower bound on the objective (minimize sessions).
  std::int64_t lower_bound = 0;
  /// Satisfying/incumbent assignment; empty unless the outcome says
  /// otherwise (never fabricated on Degraded/Rejected/Failed).
  std::vector<LBool> model;
  SolverStats stats;
  /// Failed only: the contained exception's message.
  std::string error;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;

  /// The machine-checkable outcome contract: models only where promised,
  /// trips recorded on every budgeted exit, reasons on every rejection,
  /// messages on every failure. Stress tests assert this on every
  /// delivered result.
  [[nodiscard]] bool well_formed() const noexcept {
    switch (outcome) {
      case SessionOutcome::Sat:
        return !model.empty();
      case SessionOutcome::Unsat:
        return model.empty();
      case SessionOutcome::Feasible:
        return !model.empty() && trip != BudgetTrip::None;
      case SessionOutcome::Degraded:
        return model.empty() && trip != BudgetTrip::None;
      case SessionOutcome::Cancelled:
        return trip != BudgetTrip::None;
      case SessionOutcome::Rejected:
        return reject_reason != RejectReason::None && model.empty();
      case SessionOutcome::Failed:
        return !error.empty() && model.empty();
    }
    return false;
  }
};

}  // namespace symcolor
