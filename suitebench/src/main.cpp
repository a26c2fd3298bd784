// suite_bench: runs one named workload over the paper's DIMACS suite and
// writes one JSON record per line to stdout (meta, setup, every solve,
// every span of a traced pass, peak memory). suitebench/run.py builds this
// program, runs it, and turns the records into the benchmark's metrics.
//
//   suite_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced passes call the library's public entry points. With --trace 1
// the program alternates an untraced pass with a traced replica pass, so
// every traced answer can be compared with its untraced twin. After every
// solve the program runs the reference search of calibration.h once and
// records its time with the solve, so each solve's time can be set against
// the machine's speed at that moment.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibration.h"
#include "cpu_clock.h"
#include "util/timer.h"
#include "workloads.h"

#ifndef SUITEBENCH_BUILD_TYPE
#define SUITEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace suitebench;

/// Set-up (instance generation plus one warm-up solve) is repeated this
/// many times so that its median is stable.
constexpr int kSetupRepeats = 11;

std::string escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

/// A JSON list of numbers.
std::string json_list(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  os << ']';
  return os.str();
}

/// One JSON object per output line.
class Record {
 public:
  explicit Record(const char* type) {
    os_.precision(17);
    os_ << "{\"type\":\"" << type << '"';
  }
  Record& num(const char* key, double value) {
    os_ << ",\"" << key << "\":" << value;
    return *this;
  }
  Record& str(const char* key, const std::string& value) {
    os_ << ",\"" << key << "\":\"" << escape(value) << '"';
    return *this;
  }
  Record& raw(const char* key, const std::string& json) {
    os_ << ",\"" << key << "\":" << json;
    return *this;
  }
  void emit() {
    os_ << "}\n";
    std::fputs(os_.str().c_str(), stdout);
  }

 private:
  std::ostringstream os_;
};

/// Emits the solve's record with the time of a reference search run
/// right after it.
void emit_solve(const SolveRecord& r, const char* mode, int pass) {
  const double reference = reference_sample();
  Record rec("solve");
  rec.str("mode", mode)
      .num("pass", pass)
      .str("instance", r.instance)
      .str("status", status_name(r.status))
      .num("colors", r.num_colors)
      .num("lower_bound", static_cast<double>(r.lower_bound))
      .num("max_colors", r.max_colors)
      .num("seconds", r.seconds)
      .num("wall_seconds", r.wall_seconds)
      .num("reference", reference)
      .num("conflicts", static_cast<double>(r.conflicts))
      .num("sat_calls", r.sat_calls)
      .str("error", r.error);
  if (!r.counters.empty()) {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
      os << (i ? "," : "") << '"' << r.counters[i].first
         << "\":" << r.counters[i].second;
    }
    os << '}';
    rec.raw("counters", os.str());
  }
  rec.emit();
}

void emit_spans(const Tracer& tracer, int pass) {
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    Record("span")
        .num("pass", pass)
        .num("id", static_cast<double>(i))
        .num("parent", s.parent)
        .str("name", s.name)
        .str("instance", s.instance)
        .num("start", s.start)
        .num("end", s.end)
        .emit();
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: suite_bench --workload <name> [--seed n] "
               "[--seconds s] [--trace 0|1]\nworkloads:");
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::string(value) == "1";
    } else {
      return usage();
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                workload_name) == workload_names().end()) {
    return usage();
  }
  // Set-up: what a user pays before the first solve, repeated for a
  // stable median. The warm-up solve's answer is checked like any other.
  Workload workload;
  std::vector<double> setup_times;
  std::vector<double> reference;
  for (int r = 0; r < kSetupRepeats; ++r) {
    CpuTimer timer;
    workload = make_workload(workload_name, seed);
    const SolveRecord warm = run_solve(workload, workload.warmup);
    setup_times.push_back(timer.seconds());
    reference.push_back(reference_sample());
    if (!warm.error.empty()) {
      std::fprintf(stderr, "warm-up solve failed: %s\n", warm.error.c_str());
      return 1;
    }
  }

  Record("meta")
      .str("workload", workload.name)
      .num("seed", static_cast<double>(seed))
      .num("hardware_threads", std::thread::hardware_concurrency())
      .str("build_type", SUITEBENCH_BUILD_TYPE)
      .num("solves_per_pass", static_cast<double>(workload.instances.size()))
      .num("reference_seconds", kReferenceSeconds)
      .emit();
  Record("setup")
      .raw("seconds", json_list(setup_times))
      .raw("reference", json_list(reference))
      .emit();

  // Passes until the next one would overrun `seconds` (at least one; in
  // a traced run at least one untraced and one traced pass).
  symcolor::Timer clock;
  double longest = 0.0;
  double first_pass_rss_mb = 0.0;
  Tracer tracer;
  for (int pass = 0;; ++pass) {
    symcolor::Timer iteration;
    for (int i = 0; i < static_cast<int>(workload.instances.size()); ++i) {
      emit_solve(run_solve(workload, i), "plain", pass);
    }
    if (pass == 0) first_pass_rss_mb = peak_rss_mb();
    if (trace) {
      tracer.clear();
      for (int i = 0; i < static_cast<int>(workload.instances.size()); ++i) {
        emit_solve(run_solve_traced(workload, i, tracer), "traced", pass);
      }
      emit_spans(tracer, pass);
    }
    longest = std::max(longest, iteration.seconds());
    if (clock.seconds() + longest > seconds) break;
  }
  // Peak over set-up and the first pass, which runs every solve once;
  // later passes only add allocator fragmentation.
  Record("memory").num("peak_rss_mb", first_pass_rss_mb).emit();
  return 0;
}
