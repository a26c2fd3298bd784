// symcolor_serve — long-lived solve service speaking newline-delimited
// JSON on stdin/stdout (point a socket at it with `socat` or run it as a
// child process; the protocol is transport-agnostic line framing).
//
//   symcolor_serve [--workers N] [--queue N] [--grace S] [--timeout S]
//                  [--default-timeout S] [--stats]
//
//   --workers N          pool workers (default 4)
//   --queue N            admission bound on queued requests (default 64)
//   --grace S            drain grace for in-flight sessions at shutdown
//   --timeout S          service-wide wall budget; when it expires every
//                        session degrades gracefully and the process
//                        exits with code 2 (same convention as the CLI)
//   --default-timeout S  per-request deadline when a request names none
//   --stats              print aggregate --stats lines to stderr on exit
//                        (same line formats as symcolor_cli; util/report.h)
//
// Requests (one JSON object per line):
//   {"op":"solve","id":"r1","instance":"queen5_5","k":5}
//   {"op":"solve","id":"r2","instance":"myciel4","k":5,"minimize":true,
//    "search":"binary","timeout":1.5,"conflicts":100000,"threads":2}
//   {"op":"solve","id":"r3","vars":2,"clauses":[[1,2],[-1],[-2]]}
//   {"op":"cancel","id":"r1"}
//   {"op":"stats"}
//   {"op":"quit"}
//
// Solve-request fields: a formula source — either `instance` (a member of
// the built-in DIMACS-style suite) with color bound `k` (decision
// encoding; `"minimize":true` switches to the optimization encoding and
// minimizes the color count), or raw `clauses` as DIMACS literal arrays
// with `vars` — plus optional `timeout`/`conflicts`/`props` budgets,
// `threads` (1..64), `cube_depth` (0..32; > 0 solves via cube-and-conquer:
// the search space is split into assumption cubes dealt to `threads`
// workers), `search` ("linear"|"binary"|"core"), `cache` (warm-start
// instance encodings via the service engine cache), and the fault hook
// `fault_conflicts` (throw after N conflicts; the per-session barrier
// turns it into outcome "failed"). A `k`, `threads`, `cube_depth` or
// `search` outside its range fails the request with an `error` naming it.
//
// Responses (one JSON object per line, in completion order):
//   {"id":"r1","outcome":"sat","solve_s":0.01,...}
//   {"id":"r9","outcome":"rejected","reason":"queue_full","retry_after":0.2}
//   {"op":"cancel","id":"r1","ok":true}        (acks, in request order)
//   {"error":"parse error"}                    (malformed input lines)
//
// Exit code: 0 clean quit, 2 when the service budget tripped or SIGINT
// stopped the server, 3 usage error — shared with symcolor_cli.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "coloring/encoder.h"
#include "graph/generators.h"
#include "service/solve_service.h"
#include "util/json.h"
#include "util/report.h"
#include "util/text.h"

using namespace symcolor;

namespace {

// SIGINT wiring: interrupt the service-wide budget (async-signal-safe
// atomic store) and remember that we were signalled. Installed with
// sigaction WITHOUT SA_RESTART so the blocking stdin read returns EINTR
// and the main loop can drain instead of blocking forever.
const SolveBudget* g_serve_budget = nullptr;
volatile std::sig_atomic_t g_sigint = 0;

void on_sigint(int) {
  g_sigint = 1;
  if (g_serve_budget != nullptr) g_serve_budget->interrupt();
}

void install_sigint() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigint;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGINT, &sa, nullptr);
}

// stdout is shared by the main thread (acks, errors) and the collector
// thread (session results); every line is written atomically under this
// lock and flushed so a piped client sees responses promptly.
std::mutex g_out_mutex;

void emit(const Json& line) {
  const std::string text = line.dump();
  std::lock_guard<std::mutex> lock(g_out_mutex);
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// Client-request-id bookkeeping between submit and delivery. The submit
// itself must happen UNDER this lock: a session can finish and reach the
// collector before the submitting thread runs another statement, and
// take_session blocking on the lock is what guarantees the mapping is in
// place by the time the collector looks it up.
std::mutex g_ids_mutex;
std::unordered_map<SessionId, std::string> g_session_client;
std::unordered_map<std::string, SessionId> g_client_session;

void submit_session(SolveService& service, SolveRequest request,
                    const std::string& client_id) {
  std::lock_guard<std::mutex> lock(g_ids_mutex);
  const SessionId sid = service.submit(std::move(request));
  g_session_client[sid] = client_id;
  g_client_session[client_id] = sid;
}

std::string take_session(SessionId sid) {
  std::lock_guard<std::mutex> lock(g_ids_mutex);
  const auto it = g_session_client.find(sid);
  if (it == g_session_client.end()) return {};
  std::string client = it->second;
  g_session_client.erase(it);
  const auto back = g_client_session.find(client);
  if (back != g_client_session.end() && back->second == sid) {
    g_client_session.erase(back);
  }
  return client;
}

SessionId lookup_client(const std::string& client_id) {
  std::lock_guard<std::mutex> lock(g_ids_mutex);
  const auto it = g_client_session.find(client_id);
  return it != g_client_session.end() ? it->second : kInvalidSession;
}

// Base formulas built from `instance` requests are immutable and shared;
// one entry per (instance, k, minimize) so repeated requests reuse the
// encoding AND give the service cache a stable identity to warm-start on.
std::mutex g_formula_mutex;
std::map<std::string, std::shared_ptr<const Formula>> g_formulas;

std::shared_ptr<const Formula> instance_formula(const std::string& name, int k,
                                                bool minimize,
                                                std::string* cache_key) {
  *cache_key = name + "/k=" + std::to_string(k) + (minimize ? "/min" : "/dec");
  std::lock_guard<std::mutex> lock(g_formula_mutex);
  const auto it = g_formulas.find(*cache_key);
  if (it != g_formulas.end()) return it->second;
  for (const Instance& inst : dimacs_suite()) {
    if (inst.name != name) continue;
    ColoringEncoding enc = minimize ? encode_coloring(inst.graph, k)
                                    : encode_k_coloring(inst.graph, k);
    auto formula = std::make_shared<Formula>(std::move(enc.formula));
    g_formulas[*cache_key] = formula;
    return formula;
  }
  return nullptr;
}

std::shared_ptr<const Formula> clause_formula(const Json& msg,
                                              std::string* error) {
  const std::int64_t vars = msg.get_int("vars", 0);
  const Json* clauses = msg.find("clauses");
  if (vars <= 0 || vars > 10'000'000 || clauses == nullptr ||
      !clauses->is_array()) {
    *error = "clause requests need \"vars\" (1..1e7) and \"clauses\"";
    return nullptr;
  }
  auto formula = std::make_shared<Formula>();
  formula->new_vars(static_cast<int>(vars));
  for (const Json& row : clauses->as_array()) {
    if (!row.is_array()) {
      *error = "each clause must be an array of DIMACS literals";
      return nullptr;
    }
    Clause clause;
    for (const Json& lit : row.as_array()) {
      const std::int64_t code = lit.as_int(0);
      if (code == 0 || code > vars || code < -vars) {
        *error = "literal out of range";
        return nullptr;
      }
      const Var v = static_cast<Var>(code > 0 ? code - 1 : -code - 1);
      clause.push_back(code > 0 ? Lit::positive(v) : Lit::negative(v));
    }
    formula->add_clause(std::move(clause));
  }
  return formula;
}

Json result_to_json(const std::string& client_id, const SessionResult& r) {
  Json out;
  out["id"] = client_id;
  out["outcome"] = session_outcome_name(r.outcome);
  if (r.trip != BudgetTrip::None) out["trip"] = budget_trip_name(r.trip);
  if (r.outcome == SessionOutcome::Rejected) {
    out["reason"] = reject_reason_name(r.reject_reason);
    if (r.retry_after_seconds > 0.0) {
      out["retry_after"] = r.retry_after_seconds;
    }
  }
  if (!r.model.empty()) {
    out["model_vars"] = static_cast<std::int64_t>(r.model.size());
    if (r.best_value != 0 || r.lower_bound != 0) {
      out["best_value"] = r.best_value;
    }
  }
  if (r.lower_bound != 0) out["lower_bound"] = r.lower_bound;
  if (!r.error.empty()) out["error"] = r.error;
  out["conflicts"] = r.stats.conflicts;
  out["queue_s"] = r.queue_seconds;
  out["solve_s"] = r.solve_seconds;
  return out;
}

Json stats_to_json(const ServiceStats& s) {
  Json out;
  out["op"] = "stats";
  out["submitted"] = s.submitted;
  out["completed"] = s.completed();
  out["sat"] = s.sat;
  out["unsat"] = s.unsat;
  out["feasible"] = s.feasible;
  out["degraded"] = s.degraded;
  out["cancelled"] = s.cancelled;
  out["rejected"] = s.rejected;
  out["failed"] = s.failed;
  out["shed_on_arrival"] = s.shed_on_arrival;
  out["cache_hits"] = s.cache_hits;
  out["cache_misses"] = s.cache_misses;
  out["queued_now"] = static_cast<std::int64_t>(s.queued_now);
  out["running_now"] = static_cast<std::int64_t>(s.running_now);
  out["conflicts"] = s.solver_totals.conflicts;
  return out;
}

void handle_solve(SolveService& service, const Json& msg,
                  const std::string& client_id) {
  SolveRequest request;
  std::string error;
  const std::string instance = msg.get_string("instance");
  const bool minimize = msg.get_bool("minimize", false);
  if (!instance.empty()) {
    const std::int64_t k = msg.get_int("k", 8);
    if (k < 1 || k > 256) {
      error = "\"k\" out of range (1..256)";
    } else {
      std::string cache_key;
      request.formula = instance_formula(instance, static_cast<int>(k),
                                         minimize, &cache_key);
      if (request.formula == nullptr) {
        error = "unknown instance \"" + instance + "\"";
      } else if (msg.get_bool("cache", false) && !minimize) {
        request.cache_key = cache_key;
      }
    }
  } else {
    request.formula = clause_formula(msg, &error);
  }
  // Malformed knobs fail the request, like a bad "k", rather than fall
  // back to a default.
  const std::string search = msg.get_string("search", "linear");
  if (search == "binary") request.strategy = SearchStrategy::Binary;
  else if (search == "core") request.strategy = SearchStrategy::CoreGuided;
  else if (search != "linear") error = "\"search\" must be linear|binary|core";
  const std::int64_t threads = msg.get_int("threads", 1);
  if (threads < 1 || threads > 64) error = "\"threads\" out of range (1..64)";
  const std::int64_t cube_depth = msg.get_int("cube_depth", 0);
  if (cube_depth < 0 || cube_depth > 32) {
    error = "\"cube_depth\" out of range (0..32)";
  }
  if (!error.empty()) {
    Json out;
    out["id"] = client_id;
    out["outcome"] = "failed";
    out["error"] = error;
    emit(out);
    return;
  }

  request.minimize = minimize;
  request.timeout_seconds = msg.get_double("timeout", 0.0);
  request.conflict_budget = msg.get_int("conflicts", 0);
  request.prop_budget = msg.get_int("props", 0);
  request.config.portfolio_threads = static_cast<int>(threads);
  request.config.cube_depth = static_cast<int>(cube_depth);
  const std::int64_t fault = msg.get_int("fault_conflicts", 0);
  if (fault > 0) {
    request.config.fault_injection.worker = -1;
    request.config.fault_injection.throw_after_conflicts = fault;
  }

  submit_session(service, std::move(request), client_id);
}

void collector_loop(SolveService& service) {
  SessionId sid = kInvalidSession;
  SessionResult result;
  while (service.wait_any(&sid, &result)) {
    std::string client = take_session(sid);
    if (client.empty()) client = "session-" + std::to_string(sid);
    emit(result_to_json(client, result));
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: symcolor_serve [--workers n] [--queue n] [--grace s]\n"
               "                      [--timeout s] [--default-timeout s] "
               "[--stats]\n"
               "speaks newline-delimited JSON on stdin/stdout; see the "
               "header comment\n");
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig config;
  bool print_stats = false;
  double serve_timeout = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workers") {
      const auto v = parse_number<int>(next(), 1);
      if (!v) { usage(); return kExitUsage; }
      config.workers = *v;
    } else if (arg == "--queue") {
      const auto v = parse_number<std::size_t>(next(), 1);
      if (!v) { usage(); return kExitUsage; }
      config.queue_capacity = *v;
    } else if (arg == "--grace") {
      const auto v = parse_number<double>(next(), 0.0);
      if (!v) { usage(); return kExitUsage; }
      config.drain_grace_seconds = *v;
    } else if (arg == "--timeout") {
      const auto v = parse_number<double>(next());
      if (!v) { usage(); return kExitUsage; }
      serve_timeout = *v;
    } else if (arg == "--default-timeout") {
      const auto v = parse_number<double>(next());
      if (!v) { usage(); return kExitUsage; }
      config.default_timeout_seconds = *v;
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      usage();
      return kExitUsage;
    }
  }

  // The service budget chains under this run-wide budget; SIGINT and
  // --timeout both preempt every session through it.
  const SolveBudget serve_budget(serve_timeout);
  config.parent_budget = &serve_budget;
  g_serve_budget = &serve_budget;
  install_sigint();

  SolveService service(config);
  std::thread collector(collector_loop, std::ref(service));

  std::string line;
  while (g_sigint == 0) {
    if (!std::getline(std::cin, line)) {
      if (g_sigint == 0 && std::cin.eof()) break;  // clean EOF
      if (g_sigint != 0) break;                    // interrupted read
      std::cin.clear();
      continue;
    }
    if (line.empty()) continue;
    const std::optional<Json> parsed = Json::parse(line);
    if (!parsed || !parsed->is_object()) {
      Json err;
      err["error"] = "parse error";
      emit(err);
      continue;
    }
    const Json& msg = *parsed;
    const std::string op = msg.get_string("op");
    if (op == "quit") {
      Json ack;
      ack["op"] = "quit";
      ack["ok"] = true;
      emit(ack);
      break;
    }
    if (op == "stats") {
      emit(stats_to_json(service.stats()));
      continue;
    }
    const std::string client_id = msg.get_string("id");
    if (client_id.empty()) {
      Json err;
      err["error"] = "request needs a string \"id\"";
      emit(err);
      continue;
    }
    if (op == "solve") {
      handle_solve(service, msg, client_id);
    } else if (op == "cancel") {
      const SessionId sid = lookup_client(client_id);
      const bool ok = sid != kInvalidSession && service.cancel(sid);
      Json ack;
      ack["op"] = "cancel";
      ack["id"] = client_id;
      ack["ok"] = ok;
      emit(ack);
    } else {
      Json err;
      err["id"] = client_id;
      err["error"] = "unknown op \"" + op + "\"";
      emit(err);
    }
  }

  // Drain: queued sessions reject, in-flight ones get the grace budget,
  // and the collector delivers every terminal result before exiting.
  service.shutdown(config.drain_grace_seconds);
  collector.join();

  const ServiceStats final_stats = service.stats();
  const BudgetTrip serve_trip = serve_budget.poll();
  if (print_stats) {
    std::fprintf(stderr, "%s\n",
                 format_solver_line(final_stats.solver_totals).c_str());
    if (final_stats.solver_totals.chrono_backtracks > 0) {
      // Same conditional convention as the CLI: the incremental hot-path
      // line appears only when the feature actually fired.
      std::fprintf(
          stderr, "%s\n",
          format_incremental_line(final_stats.solver_totals).c_str());
    }
    std::fprintf(stderr, "%s\n",
                 format_budget_line(serve_trip, final_stats.solver_totals)
                     .c_str());
  }
  return serve_trip != BudgetTrip::None || g_sigint != 0 ? kExitStopped
                                                         : kExitSolved;
}
