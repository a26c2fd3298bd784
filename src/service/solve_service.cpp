#include "service/solve_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "sat/parallel_solver.h"

namespace symcolor {

const char* session_outcome_name(SessionOutcome outcome) noexcept {
  switch (outcome) {
    case SessionOutcome::Sat: return "sat";
    case SessionOutcome::Unsat: return "unsat";
    case SessionOutcome::Feasible: return "feasible";
    case SessionOutcome::Degraded: return "degraded";
    case SessionOutcome::Cancelled: return "cancelled";
    case SessionOutcome::Rejected: return "rejected";
    case SessionOutcome::Failed: return "failed";
  }
  return "failed";
}

const char* reject_reason_name(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::ShuttingDown: return "shutting_down";
  }
  return "none";
}

SolveService::SolveService(ServiceConfig config)
    : config_(config),
      service_budget_(config.parent_budget != nullptr
                          ? config.parent_budget->child()
                          : SolveBudget{}) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back(&SolveService::worker_loop, this);
  }
}

SolveService::~SolveService() { shutdown(config_.drain_grace_seconds); }

SessionId SolveService::submit(SolveRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const SessionId id = next_id_++;
  ++stats_.submitted;

  auto reject = [&](RejectReason reason, const char* error) {
    auto session =
        std::make_unique<Session>(id, std::move(request), SolveBudget{});
    SessionResult r;
    if (reason != RejectReason::None) {
      r.outcome = SessionOutcome::Rejected;
      r.reject_reason = reason;
      if (reason == RejectReason::QueueFull) {
        r.retry_after_seconds = retry_after_hint_locked();
      }
    } else {
      r.outcome = SessionOutcome::Failed;
      r.error = error;
    }
    Session* raw = session.get();
    sessions_[id] = std::move(session);
    finalize_locked(*raw, std::move(r));
    return id;
  };

  if ((request.formula == nullptr) == (request.graph == nullptr)) {
    return reject(RejectReason::None,
                  "request needs exactly one of a formula and a graph");
  }
  if (draining_ || stopping_) {
    return reject(RejectReason::ShuttingDown, nullptr);
  }
  if (queue_.size() >= config_.queue_capacity) {
    return reject(RejectReason::QueueFull, nullptr);
  }

  const double timeout = request.timeout_seconds > 0.0
                             ? request.timeout_seconds
                             : config_.default_timeout_seconds;
  SolveBudget budget = service_budget_.child(timeout, request.conflict_budget,
                                             request.prop_budget);
  sessions_[id] =
      std::make_unique<Session>(id, std::move(request), std::move(budget));
  queue_.push_back(id);
  queue_cv_.notify_one();
  return id;
}

bool SolveService::cancel(SessionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->state == Session::State::Done) {
    return false;
  }
  it->second->cancel_requested.store(true, std::memory_order_release);
  it->second->budget.interrupt();
  return true;
}

SessionResult SolveService::wait(SessionId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      SessionResult r;
      r.outcome = SessionOutcome::Failed;
      r.error = "unknown or already-delivered session id";
      return r;
    }
    if (it->second->state == Session::State::Done) {
      SessionResult r = std::move(it->second->result);
      const auto pos = std::find(finished_.begin(), finished_.end(), id);
      if (pos != finished_.end()) finished_.erase(pos);
      sessions_.erase(it);
      done_cv_.notify_all();  // sessions_ may have just become empty
      return r;
    }
    done_cv_.wait(lock);
  }
}

bool SolveService::wait_any(SessionId* id, SessionResult* result) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return !finished_.empty() ||
           (sessions_.empty() && (draining_ || stopping_));
  });
  if (finished_.empty()) return false;
  const SessionId done = finished_.front();
  finished_.pop_front();
  const auto it = sessions_.find(done);
  *id = done;
  *result = std::move(it->second->result);
  sessions_.erase(it);
  done_cv_.notify_all();
  return true;
}

ServiceStats SolveService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats out = stats_;
  out.queued_now = queue_.size();
  out.running_now = static_cast<std::size_t>(running_);
  return out;
}

void SolveService::shutdown(double grace_seconds) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!stopping_) {
      draining_ = true;
      // Load-shed everything still queued: each becomes a well-formed
      // Rejected/ShuttingDown terminal, never silently dropped.
      while (!queue_.empty()) {
        const SessionId id = queue_.front();
        queue_.pop_front();
        const auto it = sessions_.find(id);
        if (it == sessions_.end() ||
            it->second->state != Session::State::Queued) {
          continue;
        }
        SessionResult r;
        r.outcome = SessionOutcome::Rejected;
        r.reject_reason = RejectReason::ShuttingDown;
        finalize_locked(*it->second, std::move(r));
      }
      // Grace window for in-flight sessions, then the service-level kill
      // switch: every running solve degrades out at its next budget poll.
      if (running_ > 0 && grace_seconds > 0.0) {
        drain_cv_.wait_for(lock, std::chrono::duration<double>(grace_seconds),
                           [&] { return running_ == 0; });
      }
      if (running_ > 0) service_budget_.interrupt();
      drain_cv_.wait(lock, [&] { return running_ == 0; });
      stopping_ = true;
      queue_cv_.notify_all();
      done_cv_.notify_all();
    }
  }
  std::call_once(join_once_, [this] {
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
  });
}

void SolveService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    const SessionId id = queue_.front();
    queue_.pop_front();
    const auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second->state != Session::State::Queued) {
      continue;
    }
    Session& session = *it->second;
    session.state = Session::State::Running;
    session.queued_seconds = session.queue_timer.seconds();
    ++running_;
    lock.unlock();

    SessionResult result = run_session(session);

    lock.lock();
    --running_;
    if (session.shed) ++stats_.shed_on_arrival;
    result.queue_seconds = session.queued_seconds;
    finalize_locked(session, std::move(result));
    if (running_ == 0) drain_cv_.notify_all();
  }
}

SessionResult SolveService::run_session(Session& session) {
  SessionResult r;
  Timer timer;

  // Dead-on-arrival shedding: a session whose budget was spent while it
  // queued (deadline, cancel, service interrupt) is finished in O(1)
  // without touching an engine.
  const BudgetTrip entry = session.budget.poll();
  if (entry != BudgetTrip::None) {
    session.shed = true;
    r.trip = entry;
    r.outcome = session.cancel_requested.load(std::memory_order_acquire)
                    ? SessionOutcome::Cancelled
                    : SessionOutcome::Degraded;
    return r;
  }

  try {
    const SolveRequest& request = session.request;
    OptStatus status = OptStatus::Unknown;
    if (request.graph != nullptr) {
      ColoringOptions options = request.options;
      options.budget = &session.budget;
      ColoringOutcome c = request.entry(*request.graph, options);
      status = c.status;
      r.stats = c.solver_stats;
      r.trip = c.tripped;
      r.lower_bound = c.lower_bound;
      r.coloring = std::move(c.coloring);
    } else {
      const std::unique_ptr<SolverEngine> engine =
          make_solver_engine(*request.formula, request.config);
      const SolveResult sr = engine->solve(session.budget);
      r.stats = engine->stats();
      r.trip = engine->last_trip();
      if (sr == SolveResult::Sat) {
        status = OptStatus::Optimal;
        r.model = engine->model();
      } else if (sr == SolveResult::Unsat) {
        status = OptStatus::Infeasible;
      }
    }
    // A budgeted exit after cancel() is the cancellation, not a
    // deadline or cap running out.
    const bool cancelled =
        session.cancel_requested.load(std::memory_order_acquire);
    switch (status) {
      case OptStatus::Optimal:
        r.outcome = SessionOutcome::Sat;
        break;
      case OptStatus::Infeasible:
        r.outcome = SessionOutcome::Unsat;
        r.coloring.clear();
        break;
      case OptStatus::Feasible:
        r.outcome =
            cancelled ? SessionOutcome::Cancelled : SessionOutcome::Feasible;
        break;
      case OptStatus::Unknown:
        r.outcome =
            cancelled ? SessionOutcome::Cancelled : SessionOutcome::Degraded;
        r.coloring.clear();
        break;
    }
  } catch (const std::exception& e) {
    // Per-session exception barrier: the fault is contained here; the
    // worker thread and every other session are unaffected.
    r = SessionResult{};
    r.outcome = SessionOutcome::Failed;
    r.error = e.what();
    if (r.error.empty()) r.error = "exception";
  } catch (...) {
    r = SessionResult{};
    r.outcome = SessionOutcome::Failed;
    r.error = "unknown exception";
  }

  r.solve_seconds = timer.seconds();
  return r;
}

void SolveService::finalize_locked(Session& session, SessionResult result) {
  switch (result.outcome) {
    case SessionOutcome::Sat: ++stats_.sat; break;
    case SessionOutcome::Unsat: ++stats_.unsat; break;
    case SessionOutcome::Feasible: ++stats_.feasible; break;
    case SessionOutcome::Degraded: ++stats_.degraded; break;
    case SessionOutcome::Cancelled: ++stats_.cancelled; break;
    case SessionOutcome::Rejected: ++stats_.rejected; break;
    case SessionOutcome::Failed: ++stats_.failed; break;
  }
  accumulate_stats(&stats_.solver_totals, result.stats);
  if (result.solve_seconds > 0.0) {
    ema_session_seconds_ = ema_session_seconds_ <= 0.0
                               ? result.solve_seconds
                               : 0.75 * ema_session_seconds_ +
                                     0.25 * result.solve_seconds;
  }
  session.result = std::move(result);
  session.state = Session::State::Done;
  finished_.push_back(session.id);
  done_cv_.notify_all();
}

double SolveService::retry_after_hint_locked() const {
  const double per_session =
      ema_session_seconds_ > 0.0 ? ema_session_seconds_ : 0.05;
  const double backlog =
      static_cast<double>(queue_.size()) + static_cast<double>(running_);
  return per_session * (backlog + 1.0) /
         static_cast<double>(std::max(config_.workers, 1));
}

}  // namespace symcolor
