#pragma once
// SolveService — the session manager turning the batch engine into a
// long-lived, fault-tolerant solve service.
//
// Shape: N pool workers (std::thread) drain ONE bounded FIFO queue of
// sessions. Each session runs under its own child SolveBudget chained
// beneath the service-wide budget, so three kill switches compose:
// per-request deadline/caps, per-session cancel(), and service-level
// interrupt (drain, SIGINT in the front end).
//
// Robustness contract, in order of the things that go wrong in a real
// service:
//
//   * Overload — the queue is bounded (ServiceConfig::queue_capacity).
//     When it is full, submit() load-sheds by rejecting the NEWEST
//     request immediately (terminal outcome Rejected/QueueFull with a
//     retry_after_seconds hint derived from observed service times).
//     Accepted work is never dropped and memory never grows unboundedly.
//   * Starvation — scheduling is strict FIFO over admitted sessions, so
//     a request can wait at most (queue ahead of it) service times; its
//     deadline ticks while it waits, and a session whose budget is
//     already spent when a worker picks it up is shed in O(1) with a
//     well-formed Degraded outcome (dead-on-arrival shedding) instead of
//     occupying an engine.
//   * Stuck sessions — cancel() wires straight to the session budget's
//     async interrupt(); the CDCL poll cadence bounds the latency to a
//     few hundred search steps. The cancelled session still produces its
//     one terminal outcome (Cancelled, carrying any incumbent found).
//   * Crashing sessions — run_session() is an exception barrier: a throw
//     (SolverConfig::fault_injection in tests, a real bug in production)
//     becomes outcome Failed for THAT session only; the worker thread
//     and every other session keep going. Warm-start masters are never
//     exposed to request faults (see service/engine_cache.h).
//   * Shutdown — shutdown(grace) drains cleanly: queued sessions are
//     rejected (ShuttingDown), in-flight ones get `grace` seconds to
//     finish before the service budget interrupts them into graceful
//     degradation, and every session still reaches exactly one terminal
//     outcome before the workers join.
//
// Delivery: wait(id) blocks for one session; wait_any() delivers finished
// sessions in completion order and is the collector loop the serve tool
// runs. Each result is delivered exactly once.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/engine_cache.h"
#include "service/session.h"
#include "util/budget.h"
#include "util/timer.h"

namespace symcolor {

struct ServiceConfig {
  /// Pool workers draining the session queue.
  int workers = 4;
  /// Admission bound on QUEUED (not yet running) sessions; submit()
  /// load-sheds past it.
  std::size_t queue_capacity = 64;
  /// Applied when a request asks for no timeout of its own (<= 0 keeps
  /// such requests unlimited).
  double default_timeout_seconds = 0.0;
  /// Grace given to in-flight sessions by the destructor's shutdown().
  double drain_grace_seconds = 1.0;
  /// Optional budget the service budget is chained under (e.g. the serve
  /// tool's --timeout); must outlive the service.
  const SolveBudget* parent_budget = nullptr;
  /// Resident warm-start masters kept by the engine cache (0 disables).
  std::size_t cache_capacity = 8;
};

/// Aggregate service counters (terminal outcomes sum to completed()).
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t sat = 0;
  std::int64_t unsat = 0;
  std::int64_t feasible = 0;
  std::int64_t degraded = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  /// Sessions shed at dequeue because their budget was already spent
  /// (a subset of degraded/cancelled; zero engine work was done).
  std::int64_t shed_on_arrival = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::size_t queued_now = 0;
  std::size_t running_now = 0;
  /// Solver work summed over every finished session (the service-side
  /// mirror of the CLI's --stats counters, same trip-counter names via
  /// util/report.h).
  SolverStats solver_totals;

  [[nodiscard]] std::int64_t completed() const noexcept {
    return sat + unsat + feasible + degraded + cancelled + rejected + failed;
  }
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig config = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admit (or load-shed) a request. Always returns a valid session id
  /// whose terminal result can be collected — a rejected request is a
  /// session that is born Done with outcome Rejected.
  SessionId submit(SolveRequest request);

  /// Request asynchronous cancellation. True when the session was still
  /// pending or running (its terminal outcome will be Cancelled, or
  /// whatever definitive answer the solve reached first); false when it
  /// had already finished or the id is unknown.
  bool cancel(SessionId id);

  /// Block until session `id` finishes and deliver its result (exactly
  /// once — the session is released). An unknown or already-delivered id
  /// returns a Failed result with an explanatory error.
  SessionResult wait(SessionId id);

  /// Deliver the next finished session in completion order. Blocks while
  /// undelivered sessions exist; returns false once the service is
  /// draining/stopped AND every session has been delivered (the
  /// collector-loop termination condition).
  bool wait_any(SessionId* id, SessionResult* result);

  [[nodiscard]] ServiceStats stats() const;

  /// Drain and stop: reject everything queued, give in-flight sessions
  /// `grace_seconds` to finish, then interrupt the service budget and
  /// wait for them to degrade out. Idempotent; later submits are
  /// rejected with ShuttingDown. Called by the destructor with
  /// config.drain_grace_seconds.
  void shutdown(double grace_seconds);

  /// The budget every session budget is chained under. interrupt() on it
  /// preempts the whole service (the serve tool points SIGINT here).
  [[nodiscard]] const SolveBudget& service_budget() const noexcept {
    return service_budget_;
  }

 private:
  struct Session {
    Session(SessionId id_in, SolveRequest request_in, SolveBudget budget_in)
        : id(id_in),
          request(std::move(request_in)),
          budget(std::move(budget_in)) {}

    SessionId id;
    SolveRequest request;
    /// Child of service_budget_, armed at submit (deadline ticks while
    /// queued). cancel() interrupts it; this session is its only solve
    /// consumer, so the sticky interrupt needs no re-arming.
    SolveBudget budget;
    Timer queue_timer;
    std::atomic<bool> cancel_requested{false};
    enum class State : std::uint8_t { Queued, Running, Done };
    State state = State::Queued;  // guarded by SolveService::mutex_
    bool shed = false;            // written only by the owning worker
    double queued_seconds = 0.0;
    SessionResult result;
  };

  void worker_loop();
  /// The per-session exception barrier; runs without the service lock.
  SessionResult run_session(Session& session);
  void finalize_locked(Session& session, SessionResult result);
  [[nodiscard]] double retry_after_hint_locked() const;

  ServiceConfig config_;
  SolveBudget service_budget_;
  EngineCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  // workers: queue non-empty / stopping
  std::condition_variable done_cv_;   // waiters: a session reached Done
  std::condition_variable drain_cv_;  // shutdown: running_ reached 0
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  std::deque<SessionId> queue_;     // admitted, waiting for a worker
  std::deque<SessionId> finished_;  // Done, not yet delivered
  ServiceStats stats_;
  double ema_session_seconds_ = 0.0;
  SessionId next_id_ = 1;
  int running_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  std::once_flag join_once_;
  std::vector<std::thread> workers_;
};

}  // namespace symcolor
