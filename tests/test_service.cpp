// SolveService robustness: every submitted request, clause or coloring,
// reaches EXACTLY ONE well-formed terminal outcome through overload,
// cancellation, injected worker crashes, driver errors, and
// drain/shutdown — including a 72-session stress burst over a 4-worker
// pool (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "service/solve_service.h"

namespace symcolor {
namespace {

// PHP(p, h): satisfiable iff p <= h; PHP(p+1, p) needs exponential
// clausal refutations, which makes it the knob for "slow" sessions.
std::shared_ptr<const Formula> pigeonhole(int pigeons, int holes) {
  auto f = std::make_shared<Formula>();
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(f->new_var());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) {
      c.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f->add_clause(std::move(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f->add_clause({Lit::negative(in[static_cast<std::size_t>(p1)]
                                       [static_cast<std::size_t>(h)]),
                       Lit::negative(in[static_cast<std::size_t>(p2)]
                                       [static_cast<std::size_t>(h)])});
      }
    }
  }
  return f;
}

std::shared_ptr<const Formula> easy_sat() { return pigeonhole(4, 5); }
std::shared_ptr<const Formula> easy_unsat() { return pigeonhole(5, 4); }
// Hard enough that a solve occupies a worker until a budget or cancel
// ends it (PHP(10,9) takes >> 10^5 conflicts clausally).
std::shared_ptr<const Formula> slow_unsat() { return pigeonhole(10, 9); }

SolveRequest decision(std::shared_ptr<const Formula> f) {
  SolveRequest r;
  r.formula = std::move(f);
  return r;
}

// A coloring request on `graph` through `entry` (solve_coloring unless
// named) at color bound `k`.
SolveRequest coloring(Graph graph, int k,
                      ColoringEntry entry = solve_coloring) {
  SolveRequest r;
  r.graph = std::make_shared<const Graph>(std::move(graph));
  r.options.max_colors = k;
  r.entry = entry;
  return r;
}

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  return g;
}

void spin_until_running(const SolveService& service) {
  while (service.stats().running_now == 0) {
    std::this_thread::yield();
  }
}

// ---- basic outcomes ----

TEST(ServiceBasics, DecisionSessionsReachSatAndUnsat) {
  SolveService service(ServiceConfig{.workers = 2});
  const SessionId sat_id = service.submit(decision(easy_sat()));
  const SessionId unsat_id = service.submit(decision(easy_unsat()));

  const SessionResult sat = service.wait(sat_id);
  EXPECT_EQ(sat.outcome, SessionOutcome::Sat);
  EXPECT_TRUE(sat.well_formed());
  EXPECT_FALSE(sat.model.empty());

  const SessionResult unsat = service.wait(unsat_id);
  EXPECT_EQ(unsat.outcome, SessionOutcome::Unsat);
  EXPECT_TRUE(unsat.well_formed());
}

TEST(ServiceBasics, MinimizeSessionProvesOptimum) {
  // Triangle: chromatic number 3, minimized at color bound 4.
  SolveService service(ServiceConfig{.workers = 1});
  const SessionResult r = service.wait(service.submit(coloring(triangle(), 4)));
  EXPECT_EQ(r.outcome, SessionOutcome::Sat);
  EXPECT_TRUE(r.well_formed());
  EXPECT_EQ(Graph::count_colors(r.coloring), 3);
  EXPECT_EQ(r.lower_bound, 3);
  ASSERT_EQ(r.coloring.size(), 3u);
  EXPECT_TRUE(triangle().is_proper_coloring(r.coloring));
  EXPECT_TRUE(r.model.empty());
}

TEST(ServiceBasics, InfeasibleColoringRequestIsUnsat) {
  SolveService service(ServiceConfig{.workers = 1});
  const SessionResult r = service.wait(service.submit(coloring(triangle(), 2)));
  EXPECT_EQ(r.outcome, SessionOutcome::Unsat);
  EXPECT_TRUE(r.well_formed());
  EXPECT_TRUE(r.coloring.empty());
}

TEST(ServiceBasics, CappedColoringRequestIsFeasibleWithCliqueBound) {
  // queen6_6 (chi 7) is far from proved in 500 conflicts, but the driver
  // has an incumbent by then and lifts the bound with a clique.
  SolveService service(ServiceConfig{.workers = 1});
  SolveRequest request = coloring(make_queen_graph(6, 6), 20);
  request.conflict_budget = 500;
  const SessionResult r = service.wait(service.submit(std::move(request)));
  EXPECT_EQ(r.outcome, SessionOutcome::Feasible);
  EXPECT_EQ(r.trip, BudgetTrip::Conflicts);
  EXPECT_TRUE(r.well_formed());
  EXPECT_GT(r.lower_bound, 0);
  EXPECT_LE(r.lower_bound, Graph::count_colors(r.coloring));
}

TEST(ServiceBasics, DriverRejectionFailsTheSessionWithItsMessage) {
  // The SAT loop cannot run Shatter; the driver's invalid_argument
  // reaches the client as the session's error.
  SolveRequest request = coloring(triangle(), 4, solve_coloring_sat_loop);
  request.options.instance_dependent_sbps = true;
  std::string expected;
  try {
    (void)solve_coloring_sat_loop(*request.graph, request.options);
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  SolveService service(ServiceConfig{.workers = 1});
  const SessionResult r = service.wait(service.submit(std::move(request)));
  EXPECT_EQ(r.outcome, SessionOutcome::Failed);
  EXPECT_EQ(r.error, expected);
  EXPECT_TRUE(r.well_formed());
}

TEST(ServiceBasics, ResultsDeliveredExactlyOnce) {
  SolveService service(ServiceConfig{.workers = 2});
  constexpr int kSessions = 8;
  std::map<SessionId, int> delivered;
  for (int i = 0; i < kSessions; ++i) service.submit(decision(easy_sat()));

  SessionId id = kInvalidSession;
  SessionResult result;
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(service.wait_any(&id, &result));
    ++delivered[id];
    EXPECT_TRUE(result.well_formed());
  }
  EXPECT_EQ(delivered.size(), static_cast<std::size_t>(kSessions));
  for (const auto& [sid, count] : delivered) EXPECT_EQ(count, 1) << sid;
  // A second wait on a delivered id reports the error explicitly.
  EXPECT_EQ(service.wait(id).outcome, SessionOutcome::Failed);
}

TEST(ServiceBasics, RequestWithoutFormulaFailsWellFormed) {
  SolveService service(ServiceConfig{.workers = 1});
  const SessionResult r = service.wait(service.submit(SolveRequest{}));
  EXPECT_EQ(r.outcome, SessionOutcome::Failed);
  EXPECT_TRUE(r.well_formed());
  // A formula and a graph at once is no request either.
  SolveRequest both = coloring(triangle(), 4);
  both.formula = easy_sat();
  const SessionResult b = service.wait(service.submit(std::move(both)));
  EXPECT_EQ(b.outcome, SessionOutcome::Failed);
  EXPECT_TRUE(b.well_formed());
}

TEST(ServiceBasics, SolverTotalsSumEveryCounterOfDeliveredSessions) {
  // solver_totals is the field-wise sum of the delivered sessions' stats,
  // chronological-backtracking counters included (they feed serve's
  // `--stats` incremental: line).
  SolveService service(ServiceConfig{.workers = 2});
  std::vector<SessionId> ids;
  for (const auto& formula : {pigeonhole(7, 6), pigeonhole(6, 5)}) {
    SolveRequest request = decision(formula);
    request.config.chrono_threshold = 1;
    ids.push_back(service.submit(std::move(request)));
  }
  SolverStats expected;
  for (const SessionId id : ids) {
    const SessionResult r = service.wait(id);
    EXPECT_EQ(r.outcome, SessionOutcome::Unsat);
    accumulate_stats(&expected, r.stats);
  }
  SolverStats totals = service.stats().solver_totals;
  int field = 0;
  detail::for_each_stat(totals, expected,
                        [&](std::int64_t& got, const std::int64_t want) {
                          EXPECT_EQ(got, want) << "SolverStats field " << field;
                          ++field;
                        });
  EXPECT_GT(totals.chrono_backtracks, 0);
}

// ---- admission control / load shedding ----

TEST(ServiceAdmission, SaturatedQueueShedsNewestWithRetryHint) {
  SolveService service(
      ServiceConfig{.workers = 1, .queue_capacity = 2});
  // Occupy the single worker, then fill the queue.
  const SessionId running = service.submit(decision(slow_unsat()));
  spin_until_running(service);
  const SessionId q1 = service.submit(decision(easy_sat()));
  const SessionId q2 = service.submit(decision(easy_sat()));
  // Queue full: the NEWEST request is rejected immediately.
  const SessionId shed = service.submit(decision(easy_sat()));
  const SessionResult r = service.wait(shed);
  EXPECT_EQ(r.outcome, SessionOutcome::Rejected);
  EXPECT_EQ(r.reject_reason, RejectReason::QueueFull);
  EXPECT_GT(r.retry_after_seconds, 0.0);
  EXPECT_TRUE(r.well_formed());

  // Accepted work is never dropped: cancel the hog and everything
  // admitted still reaches its terminal outcome.
  EXPECT_TRUE(service.cancel(running));
  EXPECT_EQ(service.wait(running).outcome, SessionOutcome::Cancelled);
  EXPECT_EQ(service.wait(q1).outcome, SessionOutcome::Sat);
  EXPECT_EQ(service.wait(q2).outcome, SessionOutcome::Sat);
}

// ---- cancellation ----

TEST(ServiceCancel, MidFlightCancellationInterruptsTheSolve) {
  SolveService service(ServiceConfig{.workers = 1});
  const SessionId id = service.submit(decision(slow_unsat()));
  spin_until_running(service);
  EXPECT_TRUE(service.cancel(id));
  const SessionResult r = service.wait(id);
  EXPECT_EQ(r.outcome, SessionOutcome::Cancelled);
  EXPECT_EQ(r.trip, BudgetTrip::Interrupt);
  EXPECT_TRUE(r.well_formed());
  // Cancelling a finished session reports false.
  EXPECT_FALSE(service.cancel(id));
}

TEST(ServiceCancel, MidFlightCancellationInterruptsAColoringRequest) {
  // myciel5 (chi 6) keeps the driver busy far longer than the cancel
  // takes to land, in whichever stage it lands.
  SolveService service(ServiceConfig{.workers = 1});
  const SessionId id = service.submit(coloring(make_myciel_dimacs(5), 20));
  spin_until_running(service);
  EXPECT_TRUE(service.cancel(id));
  const SessionResult r = service.wait(id);
  EXPECT_EQ(r.outcome, SessionOutcome::Cancelled);
  EXPECT_EQ(r.trip, BudgetTrip::Interrupt);
  EXPECT_TRUE(r.well_formed());
}

TEST(ServiceCancel, QueuedSessionCancelsWithoutEngineWork) {
  SolveService service(ServiceConfig{.workers = 1});
  const SessionId hog = service.submit(decision(slow_unsat()));
  spin_until_running(service);
  const SessionId queued = service.submit(decision(easy_sat()));
  EXPECT_TRUE(service.cancel(queued));
  EXPECT_TRUE(service.cancel(hog));
  const SessionResult r = service.wait(queued);
  EXPECT_EQ(r.outcome, SessionOutcome::Cancelled);
  EXPECT_TRUE(r.well_formed());
  EXPECT_EQ(r.stats.conflicts, 0);  // shed at dequeue, zero engine work
  EXPECT_EQ(service.wait(hog).outcome, SessionOutcome::Cancelled);
  EXPECT_GE(service.stats().shed_on_arrival, 1);
}

// ---- deadlines (FIFO-with-deadline fairness) ----

TEST(ServiceDeadline, PerRequestTimeoutDegradesGracefully) {
  SolveService service(ServiceConfig{.workers = 1});
  SolveRequest request = decision(slow_unsat());
  request.timeout_seconds = 0.05;
  const SessionResult r = service.wait(service.submit(std::move(request)));
  EXPECT_EQ(r.outcome, SessionOutcome::Degraded);
  EXPECT_EQ(r.trip, BudgetTrip::Deadline);
  EXPECT_TRUE(r.well_formed());
  EXPECT_TRUE(r.model.empty());  // Unknown never fabricates a model
}

TEST(ServiceDeadline, ConflictBudgetDegradesWithTripRecorded) {
  SolveService service(ServiceConfig{.workers = 1});
  SolveRequest request = decision(slow_unsat());
  request.conflict_budget = 50;
  const SessionResult r = service.wait(service.submit(std::move(request)));
  EXPECT_EQ(r.outcome, SessionOutcome::Degraded);
  EXPECT_EQ(r.trip, BudgetTrip::Conflicts);
  EXPECT_TRUE(r.well_formed());
}

TEST(ServiceDeadline, DeadOnArrivalSessionsAreShedAtDequeue) {
  // The deadline starts ticking at SUBMIT: a request whose budget dies
  // in the queue is shed in O(1) when a worker picks it up.
  SolveService service(ServiceConfig{.workers = 1});
  const SessionId hog = service.submit(decision(slow_unsat()));
  spin_until_running(service);
  SolveRequest doomed = decision(easy_sat());
  doomed.timeout_seconds = 1e-4;  // spent long before the hog finishes
  const SessionId id = service.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.cancel(hog);
  const SessionResult r = service.wait(id);
  EXPECT_EQ(r.outcome, SessionOutcome::Degraded);
  EXPECT_EQ(r.trip, BudgetTrip::Deadline);
  EXPECT_EQ(r.stats.conflicts, 0);
  EXPECT_TRUE(r.well_formed());
  service.wait(hog);
  EXPECT_GE(service.stats().shed_on_arrival, 1);
}

// ---- fault isolation ----

TEST(ServiceFaults, InjectedCrashFailsOnlyThatSession) {
  SolveService service(ServiceConfig{.workers = 2});
  SolveRequest faulty = decision(easy_unsat());
  faulty.config.fault_injection.worker = -1;
  faulty.config.fault_injection.throw_after_conflicts = 1;
  const SessionId bad = service.submit(std::move(faulty));
  const SessionId good = service.submit(decision(easy_sat()));

  const SessionResult br = service.wait(bad);
  EXPECT_EQ(br.outcome, SessionOutcome::Failed);
  EXPECT_FALSE(br.error.empty());
  EXPECT_TRUE(br.well_formed());

  // The worker that absorbed the crash keeps serving.
  EXPECT_EQ(service.wait(good).outcome, SessionOutcome::Sat);
  const SessionId after = service.submit(decision(easy_unsat()));
  EXPECT_EQ(service.wait(after).outcome, SessionOutcome::Unsat);
}

// ---- drain / shutdown ----

TEST(ServiceShutdown, DrainRejectsQueuedAndDegradesRunning) {
  SolveService service(
      ServiceConfig{.workers = 1, .queue_capacity = 8});
  const SessionId running = service.submit(decision(slow_unsat()));
  spin_until_running(service);
  const SessionId queued = service.submit(decision(easy_sat()));

  service.shutdown(/*grace_seconds=*/0.02);

  const SessionResult qr = service.wait(queued);
  EXPECT_EQ(qr.outcome, SessionOutcome::Rejected);
  EXPECT_EQ(qr.reject_reason, RejectReason::ShuttingDown);
  EXPECT_TRUE(qr.well_formed());

  // The in-flight session outlived the grace window, was interrupted by
  // the service budget, and degraded gracefully.
  const SessionResult rr = service.wait(running);
  EXPECT_EQ(rr.outcome, SessionOutcome::Degraded);
  EXPECT_EQ(rr.trip, BudgetTrip::Interrupt);
  EXPECT_TRUE(rr.well_formed());

  // Submits after shutdown are rejected, not lost.
  const SessionResult late = service.wait(service.submit(decision(easy_sat())));
  EXPECT_EQ(late.outcome, SessionOutcome::Rejected);
  EXPECT_EQ(late.reject_reason, RejectReason::ShuttingDown);
}

TEST(ServiceShutdown, GracefulDrainLetsInFlightWorkFinish) {
  SolveService service(ServiceConfig{.workers = 2});
  const SessionId a = service.submit(decision(easy_sat()));
  const SessionId b = service.submit(decision(easy_unsat()));
  // Drain rejects QUEUED sessions by design; wait until the workers have
  // picked both up so the grace window is what decides their fate.
  while (service.stats().queued_now > 0) std::this_thread::yield();
  service.shutdown(/*grace_seconds=*/30.0);
  EXPECT_EQ(service.wait(a).outcome, SessionOutcome::Sat);
  EXPECT_EQ(service.wait(b).outcome, SessionOutcome::Unsat);
}

// ---- the acceptance stress: 72 concurrent sessions, 4 workers ----

TEST(ServiceStress, EveryRequestReachesExactlyOneWellFormedOutcome) {
  SolveService service(ServiceConfig{.workers = 4, .queue_capacity = 16});
  constexpr int kRequests = 72;

  std::vector<SessionId> ids;
  ids.reserve(kRequests);
  std::vector<SessionId> cancel_targets;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    switch (i % 6) {
      case 0:  // easy SAT
        request = decision(easy_sat());
        break;
      case 1:  // coloring request through the driver: not 2-colorable
        request = coloring(triangle(), 2);
        break;
      case 2:  // over-budget: degrades on its conflict cap
        request = decision(pigeonhole(8, 7));
        request.conflict_budget = 64;
        break;
      case 3:  // injected crash behind the session barrier
        request = decision(easy_unsat());
        request.config.fault_injection.worker = -1;
        request.config.fault_injection.throw_after_conflicts = 1;
        break;
      case 4:  // slow with a deadline backstop; half get cancelled below
        request = decision(slow_unsat());
        request.timeout_seconds = 0.5;
        break;
      default:  // parallel portfolio session
        request = decision(easy_unsat());
        request.config.portfolio_threads = 2;
        break;
    }
    const SessionId id = service.submit(std::move(request));
    ids.push_back(id);
    if (i % 12 == 4) cancel_targets.push_back(id);
  }

  // Async cancellations racing the burst.
  std::thread canceller([&] {
    for (const SessionId id : cancel_targets) service.cancel(id);
  });

  std::map<SessionId, SessionResult> delivered;
  SessionId id = kInvalidSession;
  SessionResult result;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service.wait_any(&id, &result)) << "service starved a request";
    EXPECT_TRUE(delivered.emplace(id, result).second)
        << "session " << id << " delivered twice";
    EXPECT_TRUE(result.well_formed())
        << "session " << id << " outcome "
        << session_outcome_name(result.outcome) << " ill-formed";
  }
  canceller.join();

  // Exactly one terminal outcome per submitted request, none invented.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kRequests));
  for (const SessionId sid : ids) EXPECT_TRUE(delivered.count(sid)) << sid;

  // Load shedding may legally reject any request, but an ADMITTED request
  // must land in the outcome set its construction implies.
  for (int i = 0; i < kRequests; ++i) {
    const SessionResult& r = delivered.at(ids[static_cast<std::size_t>(i)]);
    if (r.outcome == SessionOutcome::Rejected) continue;
    switch (i % 6) {
      case 0:
        EXPECT_EQ(r.outcome, SessionOutcome::Sat) << "request " << i;
        break;
      case 1:
      case 5:
        EXPECT_EQ(r.outcome, SessionOutcome::Unsat) << "request " << i;
        break;
      case 2:  // conflict cap far below PHP(8,7)'s refutation cost
        EXPECT_EQ(r.outcome, SessionOutcome::Degraded) << "request " << i;
        EXPECT_EQ(r.trip, BudgetTrip::Conflicts) << "request " << i;
        break;
      case 3:  // the crash is contained, never leaks past the session
        EXPECT_EQ(r.outcome, SessionOutcome::Failed) << "request " << i;
        EXPECT_FALSE(r.error.empty()) << "request " << i;
        break;
      default:  // slow: cut by its deadline unless a cancel landed first
        EXPECT_TRUE(r.outcome == SessionOutcome::Degraded ||
                    r.outcome == SessionOutcome::Cancelled)
            << "request " << i << " outcome "
            << session_outcome_name(r.outcome);
        break;
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed(), kRequests);
  // The first requests are admitted before the pool can saturate, so each
  // distinguished behaviour is observed at least once...
  EXPECT_GE(stats.sat, 1);
  EXPECT_GE(stats.failed, 1);
  EXPECT_GE(stats.degraded + stats.cancelled, 1);
  // ...and 72 near-instant submissions over 4 workers hogged by ~9 s PHP
  // solves must overflow the 16-slot queue.
  EXPECT_GE(stats.rejected, 1);
  // The process survived every injected fault and still answers.
  const SessionResult after =
      service.wait(service.submit(decision(easy_sat())));
  EXPECT_EQ(after.outcome, SessionOutcome::Sat);
}

}  // namespace
}  // namespace symcolor
