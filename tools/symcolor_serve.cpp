// symcolor_serve — long-lived solve service speaking newline-delimited
// JSON on stdin/stdout (point a socket at it with `socat` or run it as a
// child process; the protocol is transport-agnostic line framing).
//
//   symcolor_serve [--workers N] [--queue N] [--grace S] [--timeout S]
//                  [--default-timeout S] [--stats]
//
//   --workers N          pool workers, 1..64 (default 4)
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
//   {"op":"solve","id":"r1","instance":"myciel4","sbp":"nu+sc",
//    "solver":"galena","timeout":1.5,"conflicts":100000}
//   {"op":"solve","id":"r2","vars":2,"clauses":[[1,2],[-1],[-2]]}
//   {"op":"cancel","id":"r1"}   {"op":"stats"}   {"op":"quit"}
//
// A coloring request (`instance`, a built-in suite member) runs through
// the CLI's driver (coloring/exact_colorer.h) and takes the CLI's options
// under their names, values and defaults: `k` (1..256, 20), `decision`,
// `satloop` (not both), `sbp`, `shatter`, `solver`, `search` and
// `threads` (1..64; more than 1 runs cube-and-conquer). A clause request
// (`vars`, `clauses` as DIMACS literal arrays) runs one engine and takes
// `threads` and the fault hook `fault_conflicts` (throw after N
// conflicts: outcome "failed"). Both take `timeout`/`conflicts`/`props`.
// A mistyped, non-integral or out-of-range field, or a key outside its
// request kind's list (a misspelling, or a field of the other kind),
// fails the request with an `error` naming it.
//
// Responses (one JSON object per line, in completion order):
//   {"id":"r1","outcome":"sat","colors":5,"lower_bound":5,"conflicts":216,
//    "queue_s":0.0001,"solve_s":0.05}
//   {"id":"r2","outcome":"unsat","conflicts":1,...}
//   {"id":"r9","outcome":"rejected","reason":"queue_full","retry_after":0.2}
//   {"op":"cancel","id":"r1","ok":true}        (acks, in request order)
//   {"error":"parse error"}                    (malformed input lines)
// `colors` counts the coloring's colors (chi on a minimizing "sat", the
// incumbent on "feasible"), `lower_bound` is proven, and `conflicts` is
// the CLI's `solver:` count; a clause "sat" carries `model_vars`.
//
// Exit code: 0 clean quit, 2 when the service budget tripped or SIGINT
// stopped the server, 3 usage error — shared with symcolor_cli.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "graph/generators.h"
#include "sat/parallel_solver.h"
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

// Typed request fields. An absent field keeps its default; a present one
// of the wrong JSON type, a non-integral number where an integer belongs,
// or a value out of range fails the request: error() names the first
// such field, and nothing runs on a silent fallback.
class Fields {
 public:
  explicit Fields(const Json& msg) : msg_(msg) {}

  std::int64_t integer(
      const char* key, std::int64_t fallback,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
    const Json* v = typed(key, &Json::is_number, "must be an integer");
    if (v == nullptr) return fallback;
    // Integral doubles inside the int64 range convert exactly.
    const double d = v->as_double();
    if (!v->is_int() && !(std::trunc(d) == d && d >= -0x1p63 && d < 0x1p63)) {
      fail(key, "must be an integer");
      return fallback;
    }
    const std::int64_t n = v->as_int();
    if (n >= lo && n <= hi) return n;
    fail(key, "out of range (" + std::to_string(lo) + ".." +
                  std::to_string(hi) + ")");
    return fallback;
  }
  double number(const char* key, double fallback) {
    const Json* v = typed(key, &Json::is_number, "must be a number");
    return v != nullptr ? v->as_double() : fallback;
  }
  bool boolean(const char* key) {
    const Json* v = typed(key, &Json::is_bool, "must be true or false");
    return v != nullptr && v->as_bool();
  }
  /// A name `parse` maps to its value: an SBP row, solver or strategy.
  template <typename Parse>
  auto named(const char* key, const char* fallback, Parse parse,
             const char* names) {
    const Json* v = msg_.find(key);
    const auto parsed = parse(v != nullptr ? v->as_string() : fallback);
    if (v != nullptr && (!v->is_string() || !parsed)) fail(key, names);
    return parsed.value_or(*parse(fallback));
  }

  /// Fails the request on the keys outside `known`, naming each: a
  /// misspelt field, or one of the other request kind, would otherwise
  /// run on its default without a word.
  void only(std::initializer_list<std::string_view> known, const char* kind) {
    std::string unknown;
    for (const auto& entry : msg_.as_object()) {
      if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
        unknown += (unknown.empty() ? "\"" : ", \"") + entry.first + "\"";
      }
    }
    if (!unknown.empty()) {
      fail(std::string("no field of ") + kind + ": " + unknown);
    }
  }

  void fail(const char* key, const std::string& what) {
    fail(std::string("\"") + key + "\" " + what);
  }
  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  /// The field when present with the JSON type `is` tests; nullptr when
  /// absent, and when mistyped, which also fails the request.
  const Json* typed(const char* key, bool (Json::*is)() const noexcept,
                    const char* what) {
    const Json* v = msg_.find(key);
    if (v == nullptr || (v->*is)()) return v;
    fail(key, what);
    return nullptr;
  }

  const Json& msg_;
  std::string error_;
};

// The built-in suite, built once; coloring requests share its graphs.
std::shared_ptr<const Graph> suite_graph(const std::string& name) {
  static const auto graphs = [] {
    std::map<std::string, std::shared_ptr<const Graph>> out;
    for (Instance& inst : dimacs_suite()) {
      out[inst.name] = std::make_shared<const Graph>(std::move(inst.graph));
    }
    return out;
  }();
  const auto it = graphs.find(name);
  return it != graphs.end() ? it->second : nullptr;
}

std::shared_ptr<const Formula> clause_formula(const Json& msg, Fields& fields) {
  const std::int64_t vars = fields.integer("vars", 0, 1, 10'000'000);
  const Json* clauses = msg.find("clauses");
  if (vars == 0 || clauses == nullptr || !clauses->is_array()) {
    fields.fail("clause requests need \"vars\" (1..1e7) and \"clauses\"");
    return nullptr;
  }
  auto formula = std::make_shared<Formula>();
  formula->new_vars(static_cast<int>(vars));
  for (const Json& row : clauses->as_array()) {
    Clause clause;
    for (const Json& lit : row.as_array()) {
      const std::int64_t code = lit.is_int() ? lit.as_int() : 0;
      if (code == 0 || code > vars || code < -vars) break;
      const Var v = static_cast<Var>(code > 0 ? code - 1 : -code - 1);
      clause.push_back(code > 0 ? Lit::positive(v) : Lit::negative(v));
    }
    // A row that is no array, or that stopped at a bad literal.
    if (!row.is_array() || clause.size() != row.as_array().size()) {
      fields.fail("clauses", "must hold arrays of DIMACS literals");
      return nullptr;
    }
    formula->add_clause(clause);
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
  }
  if (!r.coloring.empty()) out["colors"] = Graph::count_colors(r.coloring);
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
  out["queued_now"] = static_cast<std::int64_t>(s.queued_now);
  out["running_now"] = static_cast<std::int64_t>(s.running_now);
  out["conflicts"] = s.solver_totals.conflicts;
  return out;
}

void handle_solve(SolveService& service, const Json& msg,
                  const std::string& client_id) {
  Fields fields(msg);
  SolveRequest request;
  const auto threads =
      static_cast<int>(fields.integer("threads", 1, 1, kMaxThreads));
  request.timeout_seconds = fields.number("timeout", 0.0);
  request.conflict_budget = fields.integer("conflicts", 0);
  request.prop_budget = fields.integer("props", 0);

  if (const Json* instance = msg.find("instance")) {
    fields.only({"op", "id", "threads", "timeout", "conflicts", "props",
                 "instance", "k", "decision", "satloop", "sbp", "shatter",
                 "solver", "search"},
                "a coloring request");
    ColoringOptions& options = request.options;
    options.max_colors = static_cast<int>(fields.integer("k", 20, 1, 256));
    const bool decision = fields.boolean("decision");
    const bool satloop = fields.boolean("satloop");
    if (decision && satloop) fields.fail("decision", "excludes \"satloop\"");
    options.sbps = fields.named("sbp", "none", parse_sbp,
                               "must be none|nu|ca|li|liq|sc|nu+sc");
    options.instance_dependent_sbps = fields.boolean("shatter");
    options.solver = fields.named("solver", "pbs2", parse_solver,
                                 "must be pbs|pbs2|galena|pueblo|generic");
    options.search = fields.named("search", "linear", parse_search,
                                  "must be linear|binary|core");
    options.threads = threads;
    request.graph = suite_graph(instance->as_string());
    if (!request.graph) fields.fail("instance", "must name a suite graph");
    request.entry = satloop    ? solve_coloring_sat_loop
                    : decision ? solve_k_coloring
                               : solve_coloring;
  } else {
    fields.only({"op", "id", "threads", "timeout", "conflicts", "props",
                 "vars", "clauses", "fault_conflicts"},
                "a clause request");
    const std::int64_t fault = fields.integer("fault_conflicts", 0, 0);
    request.formula = clause_formula(msg, fields);
    request.config.portfolio_threads = threads;
    if (fault > 0) {
      request.config.fault_injection.worker = -1;
      request.config.fault_injection.throw_after_conflicts = fault;
    }
  }
  if (!fields.error().empty()) {
    Json out;
    out["id"] = client_id;
    out["outcome"] = "failed";
    out["error"] = fields.error();
    emit(out);
    return;
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
      if (!v || *v > kMaxThreads) { usage(); return kExitUsage; }
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
