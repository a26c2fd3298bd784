// symcolor_cli — command-line front end for the exact coloring pipeline.
//
//   symcolor_cli [options] <graph.col>
//   symcolor_cli [options] --instance <name>     (built-in suite member)
//
// Options:
//   -k <int>        color limit K (default 20)
//   --sbp <row>     none | nu | ca | li | liq | sc | nu+sc  (default none)
//   --shatter       add instance-dependent lex-leader SBPs
//   --solver <s>    pbs | pbs2 | galena | pueblo | generic  (default pbs2)
//   --search <s>    objective search strategy of the one optimizer
//                   (minimize) on ONE persistent engine: linear
//                   (strengthen from above), binary (bisect), or core
//                   (UNSAT-core lower-bound lifting); default linear.
//                   Both the native PB and --satloop pipelines run it
//   --threads <n>   cube-and-conquer workers per CDCL solve, 1..64
//                   (default 1 = the sequential engine; the answer is
//                   identical at any thread count)
//   --chrono <n>    chronological-backtracking threshold: backjumps
//                   longer than n levels undo only the conflicting level
//                   (0 = always full backjump; default is the solver
//                   profile's, currently 100; answers are identical at
//                   every setting)
//   --decision      K-colorability query instead of minimization
//   --satloop       pure-CNF SAT-loop pipeline instead of native PB: one
//                   persistent CNF engine answers every K-query. Takes
//                   --sbp, --search, --threads, --chrono and the
//                   resource-control flags; -k, --decision, --shatter,
//                   --solver and --opb are usage errors with it
//   --opb <file>    dump the encoded 0-1 ILP instance as OPB and exit
//   --stats         print symmetry/solver statistics
//
// Resource control (every run is preemptible; <= 0 means unlimited):
//   --timeout <s>          wall budget in seconds
//   --conflict-budget <n>  total CDCL conflicts across the whole run
//   --prop-budget <n>      total CDCL propagations across the whole run
//   Ctrl-C (SIGINT)        asynchronous interrupt: the solve stops within a
//                          bounded number of search steps and the run
//                          degrades gracefully — best coloring found so far
//                          plus the tightest PROVEN lower bound are reported
//                          (a second Ctrl-C kills the process as usual).
//
// Exit code: 0 optimal/SAT, 1 infeasible/UNSAT, 2 budget/interrupt stop,
// 3 usage error.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "cnf/writers.h"
#include "coloring/exact_colorer.h"
#include "graph/dimacs_col.h"
#include "graph/generators.h"
#include "sat/parallel_solver.h"
#include "util/report.h"
#include "util/text.h"

using namespace symcolor;

namespace {

// The run-wide budget SIGINT signals through. interrupt() is a single
// lock-free atomic store, so calling it from the handler is safe; the
// handler is only installed after the pointer is set.
const SolveBudget* g_run_budget = nullptr;

void on_sigint(int) {
  if (g_run_budget != nullptr) {
    g_run_budget->interrupt();
    // Restore the default disposition so a second Ctrl-C kills the
    // process even if the solver is stuck outside its poll cadence.
    std::signal(SIGINT, SIG_DFL);
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: symcolor_cli [-k K] [--sbp row] [--shatter] "
               "[--solver s] [--search linear|binary|core]\n"
               "                    [--threads n] [--chrono n]\n"
               "                    [--decision] [--satloop] [--opb file] "
               "[--stats]\n"
               "                    (<graph.col> | --instance <name>)\n"
               "--satloop takes --sbp, --search, --threads, --chrono and "
               "the resource-control\n"
               "                    flags, not -k, --decision, --shatter, "
               "--solver or --opb\n"
               "resource control (<= 0 = unlimited; Ctrl-C interrupts and "
               "reports best-so-far):\n"
               "                    [--timeout sec] [--conflict-budget n] "
               "[--prop-budget n]\n");
}

}  // namespace

int main(int argc, char** argv) {
  int k = 20;
  SbpOptions sbps;
  bool shatter_flow = false;
  SolverKind solver = SolverKind::PbsII;
  SearchStrategy search = SearchStrategy::Linear;
  int threads = 1;
  long long chrono = -1;  // < 0 = keep the solver profile's default
  double timeout = 0.0;
  long long conflict_budget = 0;
  long long prop_budget = 0;
  bool decision = false;
  bool satloop = false;
  bool stats = false;
  std::string opb_path;
  std::string graph_path;
  std::string instance_name;
  // The last flag given that --satloop does not honor. Presence decides,
  // not value: `--solver pbs2` names the default.
  const char* native_only_flag = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "-k") {
      native_only_flag = "-k";
      const auto v = parse_number<int>(next(), 1);
      if (!v) { usage(); return kExitUsage; }
      k = *v;
    } else if (arg == "--sbp") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_sbp(v) : std::nullopt;
      if (!parsed) { usage(); return kExitUsage; }
      sbps = *parsed;
    } else if (arg == "--shatter") {
      shatter_flow = true;
      native_only_flag = "--shatter";
    } else if (arg == "--solver") {
      native_only_flag = "--solver";
      const char* v = next();
      const auto parsed = v != nullptr ? parse_solver(v) : std::nullopt;
      if (!parsed) { usage(); return kExitUsage; }
      solver = *parsed;
    } else if (arg == "--search") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_search(v) : std::nullopt;
      if (!parsed) { usage(); return kExitUsage; }
      search = *parsed;
    } else if (arg == "--threads") {
      const auto v = parse_number<int>(next(), 1);
      if (!v || *v > kMaxThreads) {
        std::fprintf(stderr, "--threads takes 1..%d\n", kMaxThreads);
        usage();
        return kExitUsage;
      }
      threads = *v;
    } else if (arg == "--chrono") {
      const auto v = parse_number<long long>(next(), 0);
      if (!v) { usage(); return kExitUsage; }
      chrono = *v;
    } else if (arg == "--timeout") {
      const auto v = parse_number<double>(next());
      if (!v) { usage(); return kExitUsage; }
      timeout = *v;
    } else if (arg == "--conflict-budget") {
      const auto v = parse_number<long long>(next());
      if (!v) { usage(); return kExitUsage; }
      conflict_budget = *v;
    } else if (arg == "--prop-budget") {
      const auto v = parse_number<long long>(next());
      if (!v) { usage(); return kExitUsage; }
      prop_budget = *v;
    } else if (arg == "--decision") {
      decision = true;
      native_only_flag = "--decision";
    } else if (arg == "--satloop") {
      satloop = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--opb") {
      native_only_flag = "--opb";
      const char* v = next();
      if (v == nullptr) { usage(); return kExitUsage; }
      opb_path = v;
    } else if (arg == "--instance") {
      const char* v = next();
      if (v == nullptr) { usage(); return kExitUsage; }
      instance_name = v;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return kExitUsage;
    } else {
      graph_path = arg;
    }
  }
  if (satloop && native_only_flag != nullptr) {
    std::fprintf(stderr, "--satloop does not take %s\n", native_only_flag);
    usage();
    return kExitUsage;
  }

  Graph graph;
  try {
    if (!instance_name.empty()) {
      bool found = false;
      for (const Instance& inst : dimacs_suite()) {
        if (inst.name == instance_name) {
          graph = inst.graph;
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown instance '%s'; available:\n",
                     instance_name.c_str());
        for (const Instance& inst : dimacs_suite()) {
          std::fprintf(stderr, "  %s\n", inst.name.c_str());
        }
        return kExitUsage;
      }
    } else if (!graph_path.empty()) {
      graph = read_dimacs_col_file(graph_path);
    } else {
      usage();
      return kExitUsage;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }
  std::printf("graph: %d vertices, %d edges\n", graph.num_vertices(),
              graph.num_edges());

  if (!opb_path.empty()) {
    const ColoringEncoding enc = encode_coloring(graph, k, sbps);
    std::ofstream out(opb_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opb_path.c_str());
      return kExitUsage;
    }
    write_opb(out, enc.formula);
    std::printf("wrote %s: %d vars, %d clauses, %d PB constraints\n",
                opb_path.c_str(), enc.formula.num_vars(),
                enc.formula.num_clauses(), enc.formula.num_pb());
    return kExitSolved;
  }

  // One budget covers the whole run; Ctrl-C asynchronously interrupts it
  // and the pipelines degrade gracefully (best-so-far + proven bound).
  const SolveBudget run_budget(timeout, conflict_budget, prop_budget);
  g_run_budget = &run_budget;
  std::signal(SIGINT, on_sigint);

  ColoringOptions options;
  options.max_colors = k;
  options.sbps = sbps;
  options.instance_dependent_sbps = shatter_flow;
  options.solver = solver;
  options.search = search;
  options.threads = threads;
  options.chrono_threshold = chrono;
  options.budget = &run_budget;
  const ColoringOutcome r = satloop    ? solve_coloring_sat_loop(graph, options)
                            : decision ? solve_k_coloring(graph, options)
                                       : solve_coloring(graph, options);

  if (stats) {
    std::printf("formula: %d vars, %d clauses, %d PB\n", r.formula_vars,
                r.formula_clauses, r.formula_pb);
    if (r.symmetry) {
      std::string route =
          r.symmetry->closed_form
              ? std::string("closed form")
              : "formula graph, " +
                    std::to_string(r.symmetry->formula_graph_vertices) +
                    " vertices";
      if (r.symmetry->spurious_rejected > 0) {
        route += ", " + std::to_string(r.symmetry->spurious_rejected) +
                 " spurious";
      }
      std::printf(
          "symmetries: 10^%.2f in %d generators (%.3f s detection, %s)\n",
          r.symmetry->log10_order,
          static_cast<int>(r.symmetry->generators.size()),
          r.symmetry->detect_seconds, route.c_str());
    }
    // Shared line formats (util/report.h) so tooling parses the CLI and
    // symcolor_serve identically.
    std::printf("%s\n", format_solver_line(r.solver_stats).c_str());
    if (r.solver_stats_all.conflicts != r.solver_stats.conflicts ||
        r.solver_stats_all.propagations != r.solver_stats.propagations) {
      // Parallel run: the answering worker's line above hides the other
      // workers' work, so surface the all-workers sum too.
      std::printf("%s\n", format_workers_line(r.solver_stats_all).c_str());
    }
    if (r.solver_stats_all.cubes_dealt > 0) {
      // Cube-and-conquer run: show the schedule (dealt/refuted/pruned/
      // split counts summed over every decision query).
      std::printf("%s\n", format_cubes_line(r.solver_stats_all).c_str());
    }
    if (r.solver_stats_all.chrono_backtracks > 0) {
      // Incremental hot path: only interesting when it fired (a one-shot
      // solve with --chrono 0 never touches these counters).
      std::printf("%s\n",
                  format_incremental_line(r.solver_stats_all).c_str());
    }
    std::printf("%s\n",
                format_budget_line(r.tripped, r.solver_stats).c_str());
  }

  // Every answer line ends in a parenthesized tail: the wall time, and on
  // the SAT loop first its clique certificate and SAT-call count.
  char tail[96];
  if (satloop) {
    std::snprintf(tail, sizeof tail, "clique %zu, %d SAT calls, %.3f s",
                  r.clique.size(), r.sat_calls, r.total_seconds);
  } else {
    std::snprintf(tail, sizeof tail, "%.3f s", r.total_seconds);
  }
  switch (r.status) {
    case OptStatus::Optimal:
      if (decision) {
        std::printf("%d-colorable: yes (%s)\n", k, tail);
      } else {
        std::printf("chromatic number: %d (%s)\n", r.num_colors, tail);
      }
      return kExitSolved;
    case OptStatus::Infeasible:
      std::printf("not %d-colorable (%s)\n", k, tail);
      return kExitInfeasible;
    case OptStatus::Feasible:
      std::printf(
          "stopped (%s); best coloring uses %d colors; "
          "chromatic number >= %lld proven (%s)\n",
          budget_trip_name(r.tripped), r.num_colors,
          static_cast<long long>(r.lower_bound), tail);
      return kExitStopped;
    case OptStatus::Unknown:
      std::printf("stopped (%s) with no coloring found (%s)\n",
                  budget_trip_name(r.tripped), tail);
      return kExitStopped;
  }
  return kExitStopped;
}
