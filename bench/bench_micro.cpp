// Microbenchmarks (google-benchmark) for the hot substrates: encoding,
// CDCL propagation/solving, partition refinement, automorphism search,
// clique and heuristic coloring. These track the per-component costs
// behind the table benchmarks.
//
// In addition to the usual console output, every run writes a
// machine-readable BENCH_micro.json (override the path with
// SYMCOLOR_BENCH_JSON) so successive PRs can diff propagation throughput:
//   [{"name": ..., "n": ..., "reps": ..., "ns_per_op": ...,
//     "propagations_per_sec": ...}, ...]
// `propagations_per_sec` is nonzero only for the solver benchmarks that
// report it as a counter; `n` is the trailing benchmark argument (0 when
// the benchmark takes none).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "automorphism/refinement.h"
#include "automorphism/search.h"
#include "coloring/color_symmetry.h"
#include "coloring/dsatur_bnb.h"
#include "coloring/encoder.h"
#include "coloring/exact_colorer.h"
#include "coloring/heuristics.h"
#include "graph/clique.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "pb/solver_profiles.h"
#include "sat/cdcl.h"
#include "sat/parallel_solver.h"
#include "sat/watcher_pool.h"
#include "symmetry/formula_graph.h"
#include "symmetry/shatter.h"
#include "util/perf_counters.h"

namespace symcolor {
namespace {

/// Minor page faults per iteration of the timed loop (getrusage), as the
/// `minflt_per_iter` counter: a block above glibc's mmap threshold is
/// mapped and unmapped per iteration and faults on every page it
/// touches, so the count shows allocator placement apart from the work.
class MinorFaults {
 public:
  MinorFaults() : start_(now()) {}
  void report(benchmark::State& state) const {
    state.counters["minflt_per_iter"] =
        static_cast<double>(now() - start_) /
        static_cast<double>(std::max<benchmark::IterationCount>(
            state.iterations(), 1));
  }

 private:
  static long now() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  }
  long start_;
};

/// User-space instructions per iteration of the timed loop, as the
/// `instr_per_iter` counter (util/perf_counters.h): the work itself, which
/// memory layout does not move. Left out where the counter is unavailable.
class RetiredInstructions {
 public:
  RetiredInstructions() : start_(counter_.read()) {}
  void report(benchmark::State& state) const {
    if (!counter_.available()) return;
    state.counters["instr_per_iter"] =
        static_cast<double>(counter_.read() - start_) /
        static_cast<double>(std::max<benchmark::IterationCount>(
            state.iterations(), 1));
  }

 private:
  InstructionCounter counter_;
  std::int64_t start_;
};

void BM_EncodeColoring(benchmark::State& state) {
  const Graph g = make_random_gnm(125, 736, 0xD51);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_coloring(g, k));
  }
}
BENCHMARK(BM_EncodeColoring)->Arg(10)->Arg(20)->Arg(30);

void BM_EncodeWithLi(benchmark::State& state) {
  const Graph g = make_random_gnm(125, 736, 0xD51);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encode_coloring(g, 20, SbpOptions::li_only()));
  }
}
BENCHMARK(BM_EncodeWithLi);

void BM_CdclQueenDecision(benchmark::State& state) {
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_k_coloring(g, 5, SbpOptions::nu_sc());
  for (auto _ : state) {
    CdclSolver solver(enc.formula, profile_config(SolverKind::PbsII));
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_CdclQueenDecision);

// The headline hot-path number: raw unit propagations per second through
// the watched-literal/PB engine on a symmetry-broken coloring instance.
// A fixed conflict budget makes every iteration search the same prefix of
// the tree, so the measurement is a pure propagation workload. A budget's
// caps are a ledger of everything solved under it, so every iteration
// gets a fresh one.
void BM_CdclPropagationThroughput(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const Graph g = make_queen_graph(q, q);
  const ColoringEncoding enc = encode_k_coloring(g, q + 1, SbpOptions::nu_sc());
  const SolverConfig config = profile_config(SolverKind::PbsII);
  std::int64_t propagations = 0;
  for (auto _ : state) {
    const SolveBudget budget(0.0, 2000);
    CdclSolver solver(enc.formula, config);
    benchmark::DoNotOptimize(solver.solve(budget));
    propagations += solver.stats().propagations;
  }
  state.counters["propagations_per_sec"] = benchmark::Counter(
      static_cast<double>(propagations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclPropagationThroughput)->Arg(6)->Arg(7)->Arg(8);

// The same fixed-prefix workload driven through a fully armed SolveBudget
// (wall clock + conflict cap + propagation cap + live interrupt flag that
// never fires): measures the overhead the resource-control plumbing adds
// to the hot loop. Gated against BM_CdclPropagationThroughput's rate in CI
// — the budget checks are a cadence-based poll plus two integer compares
// per iteration, so the two rates must stay within run-to-run noise.
void BM_CdclBudgetedSolve(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const Graph g = make_queen_graph(q, q);
  const ColoringEncoding enc = encode_k_coloring(g, q + 1, SbpOptions::nu_sc());
  const SolverConfig config = profile_config(SolverKind::PbsII);
  // Every dimension armed but none reachable: 2000 conflicts bound the
  // prefix (as in the unbudgeted twin), the rest is pure checking cost.
  std::int64_t propagations = 0;
  for (auto _ : state) {
    const SolveBudget budget(/*seconds=*/3600.0, /*conflicts=*/2000,
                             /*propagations=*/std::int64_t{1} << 60);
    CdclSolver solver(enc.formula, config);
    benchmark::DoNotOptimize(solver.solve(budget));
    propagations += solver.stats().propagations;
  }
  state.counters["propagations_per_sec"] = benchmark::Counter(
      static_cast<double>(propagations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclBudgetedSolve)->Arg(6)->Arg(7);

// Same workload through the PB-heavy path: at-most-one rows encoded as
// pseudo-Boolean constraints exercise the cached-slack propagator.
void BM_CdclPbPropagationThroughput(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const Graph g = make_queen_graph(q, q);
  Formula f;
  const int n = g.num_vertices();
  const int k = q + 1;
  // x_{v,c} says vertex v takes color c; per-vertex exactly-one rows are
  // PB constraints, adjacency handled clausally.
  for (int v = 0; v < n; ++v) {
    std::vector<Lit> row;
    for (int c = 0; c < k; ++c) {
      row.push_back(Lit::positive(f.new_var()));
    }
    f.add_exactly(row, 1);
  }
  for (const Edge& e : g.edges()) {
    for (int c = 0; c < k; ++c) {
      f.add_clause({Lit::negative(e.u * k + c), Lit::negative(e.v * k + c)});
    }
  }
  const SolverConfig config = profile_config(SolverKind::PbsII);
  std::int64_t propagations = 0;
  for (auto _ : state) {
    const SolveBudget budget(0.0, 2000);
    CdclSolver solver(f, config);
    benchmark::DoNotOptimize(solver.solve(budget));
    propagations += solver.stats().propagations;
  }
  state.counters["propagations_per_sec"] = benchmark::Counter(
      static_cast<double>(propagations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclPbPropagationThroughput)->Arg(6)->Arg(7);

// PB conflict-analysis throughput: pigeonhole PHP(9,8) with the per-hole
// at-most-one rows kept as genuine PB constraints, so conflicts hammer the
// PB analysis path, under both modes — Arg(0) = the classic clause-
// weakening scheme (budgeted to a fixed 1500-conflict prefix of its ~19k-
// conflict refutation), Arg(1) = native cutting planes (which refutes the
// instance outright in a few dozen conflicts per iteration). conflicts/s
// is the per-mode analysis throughput; the iteration count difference is
// the strength separation itself.
void BM_CdclPbConflictAnalysis(benchmark::State& state) {
  const int holes = 8;
  const int pigeons = holes + 1;
  Formula f;
  std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(f.new_var());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) {
      c.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    std::vector<Lit> col;
    for (int p = 0; p < pigeons; ++p) {
      col.push_back(Lit::positive(
          in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    }
    f.add_at_most(col, 1);
  }
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.pb_analysis =
      state.range(0) == 0 ? PbAnalysis::Weaken : PbAnalysis::CuttingPlanes;
  std::int64_t conflicts = 0;
  std::int64_t resolutions = 0;
  for (auto _ : state) {
    const SolveBudget budget(0.0, 1500);
    CdclSolver solver(f, config);
    benchmark::DoNotOptimize(solver.solve(budget));
    conflicts += solver.stats().conflicts;
    resolutions += solver.stats().pb_resolutions;
  }
  state.counters["conflicts_per_sec"] = benchmark::Counter(
      static_cast<double>(conflicts), benchmark::Counter::kIsRate);
  state.counters["pb_resolutions_per_iter"] =
      static_cast<double>(resolutions) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_CdclPbConflictAnalysis)->Arg(0)->Arg(1);

// Propagation throughput under constant clause-database churn: a tiny
// learnt limit drives reduce_db() (LBD-tiered retention + arena GC +
// watcher-pool compaction) every few conflicts, so this measures how much
// the tiered reduction machinery taxes the hot path.
void BM_CdclReduceDbChurn(benchmark::State& state) {
  const Graph g = make_queen_graph(7, 7);
  const ColoringEncoding enc = encode_k_coloring(g, 8, SbpOptions::nu_sc());
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.max_learnts_init = 64;
  std::int64_t propagations = 0;
  std::int64_t collections = 0;
  for (auto _ : state) {
    const SolveBudget budget(0.0, 1000);
    CdclSolver solver(enc.formula, config);
    benchmark::DoNotOptimize(solver.solve(budget));
    propagations += solver.stats().propagations;
    collections += solver.stats().arena_collections;
  }
  state.counters["propagations_per_sec"] = benchmark::Counter(
      static_cast<double>(propagations), benchmark::Counter::kIsRate);
  state.counters["collections_per_iter"] =
      static_cast<double>(collections) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_CdclReduceDbChurn);

// Raw flat-pool cost: interleaved pushes across many rows (the watch-list
// write pattern during clause attachment) followed by a compaction, per
// iteration. Tracks the amortized-doubling growth path in isolation.
void BM_WatcherPoolChurn(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  struct Entry {
    std::uint32_t a;
    std::uint32_t b;
  };
  for (auto _ : state) {
    FlatOccPool<Entry> pool;
    pool.init(rows);
    for (std::uint32_t i = 0; i < 16 * rows; ++i) {
      pool.push(i % rows, {i, i ^ 0x5EEDu});
    }
    pool.compact();
    benchmark::DoNotOptimize(pool.live_entries());
  }
}
BENCHMARK(BM_WatcherPoolChurn)->Arg(256)->Arg(4096);

// Wall-clock of the parallel engine against the sequential one on
// queen9 at K = chi + 1 with NU-only SBPs, where the base PBS II
// personality wanders through the whole space before finding a model.
// At 4 workers lookahead cubes partition the space, so no worker has to
// survive that wander — each slice either finishes or is split and
// re-dealt; 1 worker is the sequential engine, the number to beat (on a
// 4-vCPU container, Release: 3.1 s sequential, 1.0 s at 4 workers). Real
// time: the cube workers run outside the benchmark thread.
void BM_CdclCubeAndConquer(benchmark::State& state) {
  const Graph g = make_queen_graph(9, 9);
  const ColoringEncoding enc =
      encode_k_coloring(g, 10, SbpOptions::nu_only());
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto engine = make_solver_engine(enc.formula, config);
    // The guard deadline only trips if a regression makes the run
    // pathological; a timeout would clamp the reported ratio from below.
    benchmark::DoNotOptimize(engine->solve(SolveBudget(180.0)));
  }
}
BENCHMARK(BM_CdclCubeAndConquer)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// CI-smoke twin of the cube engine: deterministic cube solve of queen5
// with a warmup small enough that every phase (lookahead generation, cube
// dealing, slice-trip splitting) runs each iteration. Two threads select
// the parallel engine; deterministic mode runs it as one worker, which
// keeps the timing race-free so the bench-compare gate measures
// cube-machinery overhead, not thread-scheduling noise.
void BM_CdclCubeSolveSmoke(benchmark::State& state) {
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_k_coloring(g, 4, SbpOptions::none());
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.portfolio_threads = 2;
  config.cube_depth = 3;
  config.cube_warmup_conflicts = 4;
  config.cube_conflict_slice = 16;
  config.portfolio_deterministic = true;
  std::int64_t conflicts = 0;
  for (auto _ : state) {
    const auto engine = make_solver_engine(enc.formula, config);
    benchmark::DoNotOptimize(engine->solve());
    conflicts += engine->aggregated_stats().conflicts;
  }
  state.counters["conflicts_per_sec"] = benchmark::Counter(
      static_cast<double>(conflicts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclCubeSolveSmoke);

// Sharded ClauseExchange churn from a single thread: export a clause and
// drain the import horizon every round, across 4 shards. This is the
// uncontended cost every portfolio/cube worker pays at each exchange
// interval, so the bench-compare gate on it proves the shard split did
// not tax the 1-thread path it was supposed to leave alone.
void BM_ClauseExchangeChurn(benchmark::State& state) {
  const std::vector<Lit> clause = {Lit::positive(0), Lit::negative(1),
                                   Lit::positive(2)};
  std::int64_t exchanged = 0;
  for (auto _ : state) {
    ClauseExchange exchange(4096, 4);
    std::size_t cursors[4] = {0, 0, 0, 0};
    std::vector<SharedClause> in;
    for (int round = 0; round < 1024; ++round) {
      const int worker = round & 3;
      exchange.export_clause(worker, clause, 2);
      in.clear();
      exchange.import_clauses(worker ^ 1, &cursors[worker ^ 1], &in);
      exchanged += static_cast<std::int64_t>(in.size()) + 1;
    }
    benchmark::DoNotOptimize(exchange.exported());
  }
  state.counters["exchange_ops_per_sec"] = benchmark::Counter(
      static_cast<double>(exchanged), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClauseExchangeChurn);

// One persistent engine, repeated assumption solves: the incremental-SAT
// workload every optimizer loop now runs. Each iteration asks "<= k
// colors?" for every k from K-1 down to chi via a single retractable
// ~y(k) assumption against ONE solver — learned clauses accumulate across
// the queries instead of being rebuilt away.
void BM_CdclAssumptionSolve(benchmark::State& state) {
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_k_coloring(g, 7, SbpOptions::nu_sc());
  SolverConfig config = profile_config(SolverKind::PbsII);
  std::int64_t conflicts = 0;
  std::int64_t solves = 0;
  for (auto _ : state) {
    CdclSolver solver(enc.formula, config);
    for (int k = 6; k >= 4; --k) {  // chi(queen5) = 5: SAT, SAT, UNSAT
      const std::vector<Lit> assume{Lit::negative(enc.y(k))};
      benchmark::DoNotOptimize(solver.solve(SolveBudget{}, assume));
      ++solves;
    }
    conflicts += solver.stats().conflicts;
  }
  state.counters["conflicts_per_sec"] = benchmark::Counter(
      static_cast<double>(conflicts), benchmark::Counter::kIsRate);
  state.counters["assumption_solves_per_sec"] = benchmark::Counter(
      static_cast<double>(solves), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclAssumptionSolve);

// Optimizer-style probe ladder on one persistent engine where every call
// EXTENDS the previous assumption vector: {~y(6)}, then {~y(6),~y(5)},
// then {~y(6),~y(5),~y(4)}, repeated — exactly the linear-strengthening
// ladder the optimizer and SAT loop drive. Every solve() returns at level
// 0, so each call re-propagates its whole assumption prefix; what carries
// over is learned state. The name is kept so the bench-compare gate
// history on this ladder carries over.
void BM_CdclAssumptionPrefixReuse(benchmark::State& state) {
  const Graph g = make_queen_graph(5, 5);
  const ColoringEncoding enc = encode_k_coloring(g, 7, SbpOptions::nu_sc());
  const SolverConfig config = profile_config(SolverKind::PbsII);
  std::int64_t solves = 0;
  for (auto _ : state) {
    CdclSolver solver(enc.formula, config);
    std::vector<Lit> assume;
    for (int round = 0; round < 8; ++round) {
      assume.clear();
      for (int k = 6; k >= 4; --k) {  // chi(queen5) = 5: SAT, SAT, UNSAT
        assume.push_back(Lit::negative(enc.y(k)));
        benchmark::DoNotOptimize(solver.solve(SolveBudget{}, assume));
        ++solves;
      }
    }
  }
  state.counters["assumption_solves_per_sec"] = benchmark::Counter(
      static_cast<double>(solves), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclAssumptionPrefixReuse);

// Chronological backtracking on a conflict-heavy decision query:
// Arg 0 = off (always full 1UIP backjump), Arg 1 = on at threshold 1 —
// the aggressive setting, so every multi-level backjump takes the chrono
// path (the production default of 100 would never fire at queen6 depths).
// The saved_propagations counter shows how much trail the policy kept
// alive; run-to-run bench-compare gates both variants so neither the
// policy nor its bookkeeping regresses the conflict loop.
void BM_CdclChronoBacktrack(benchmark::State& state) {
  const Graph g = make_queen_graph(6, 6);
  const ColoringEncoding enc = encode_k_coloring(g, 7, SbpOptions::nu_sc());
  SolverConfig config = profile_config(SolverKind::PbsII);
  config.chrono_threshold = state.range(0) == 0 ? 0 : 1;
  std::int64_t conflicts = 0;
  std::int64_t saved = 0;
  for (auto _ : state) {
    CdclSolver solver(enc.formula, config);
    benchmark::DoNotOptimize(solver.solve(SolveBudget{}));
    conflicts += solver.stats().conflicts;
    saved += solver.stats().saved_propagations;
  }
  state.counters["conflicts_per_sec"] = benchmark::Counter(
      static_cast<double>(conflicts), benchmark::Counter::kIsRate);
  state.counters["saved_props_per_iter"] =
      static_cast<double>(saved) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_CdclChronoBacktrack)->Arg(0)->Arg(1);

// The three objective search strategies on the same optimizer instance:
// Arg 0 = linear strengthening, 1 = binary search, 2 = core-guided.
// Every strategy drives one persistent engine through selector-ladder
// assumptions; probes_per_iter and conflicts expose their different
// probe/hardness trade-offs.
void BM_OptimizerSearchStrategies(benchmark::State& state) {
  const Graph g = make_queen_graph(6, 6);
  const ColoringEncoding enc = encode_coloring(g, 8, SbpOptions::nu_sc());
  const SolverConfig config = profile_config(SolverKind::PbsII);
  const auto strategy = static_cast<SearchStrategy>(state.range(0));
  std::int64_t conflicts = 0;
  std::int64_t probes = 0;
  for (auto _ : state) {
    const OptResult r = minimize(enc.formula, config, SolveBudget(60.0), strategy);
    benchmark::DoNotOptimize(r.best_value);
    conflicts += r.stats.conflicts;
    probes += r.probes;
  }
  state.counters["conflicts_per_sec"] = benchmark::Counter(
      static_cast<double>(conflicts), benchmark::Counter::kIsRate);
  state.counters["probes_per_iter"] =
      static_cast<double>(probes) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_OptimizerSearchStrategies)->Arg(0)->Arg(1)->Arg(2);

// The SAT loop with the CLI --satloop defaults (sequential AMO, no SBPs,
// clique pinning) on queen7_7, per search strategy: every K-query runs on
// one persistent engine. Arg = SearchStrategy (0 linear, 1 binary, 2 core).
// sat_calls_per_iter counts minimize()'s probes: its opening unconstrained
// probe included, and under core one mining probe per pinned color.
void BM_SatLoopSearchStrategies(benchmark::State& state) {
  const Graph g = make_queen_graph(7, 7);
  ColoringOptions options;
  options.search = static_cast<SearchStrategy>(state.range(0));
  std::int64_t sat_calls = 0;
  for (auto _ : state) {
    const ColoringOutcome r = solve_coloring_sat_loop(g, options);
    benchmark::DoNotOptimize(r.num_colors);
    sat_calls += r.sat_calls;
  }
  state.counters["sat_calls_per_iter"] =
      static_cast<double>(sat_calls) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_SatLoopSearchStrategies)->Arg(0)->Arg(1)->Arg(2);

void BM_MinimizeMyciel(benchmark::State& state) {
  const Graph g = make_myciel_dimacs(static_cast<int>(state.range(0)));
  const ColoringEncoding enc = encode_coloring(g, 8, SbpOptions::nu_sc());
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimize(enc.formula,
                                      profile_config(SolverKind::PbsII),
                                      SolveBudget(30.0), SearchStrategy::Linear));
  }
}
BENCHMARK(BM_MinimizeMyciel)->Arg(3)->Arg(4);

void BM_PartitionRefinement(benchmark::State& state) {
  const Graph g = make_random_gnm(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(0)) * 8, 7);
  for (auto _ : state) {
    OrderedPartition p(g.num_vertices(), {});
    std::vector<int> worklist{0};
    benchmark::DoNotOptimize(p.refine(g, worklist));
  }
}
BENCHMARK(BM_PartitionRefinement)->Arg(128)->Arg(512)->Arg(2048);

void BM_AutomorphismQueen(benchmark::State& state) {
  const Graph g = make_queen_graph(6, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_automorphisms(g));
  }
}
BENCHMARK(BM_AutomorphismQueen);

// The search as the Shatter flow runs it: the formula graph of queen8_8
// at K=20 with SC (2.8k vertices), whose S_18 color symmetry dominates
// the search tree.
void BM_AutomorphismFormulaGraph(benchmark::State& state) {
  const Graph g = make_queen_graph(8, 8);
  const FormulaGraph fg = build_formula_graph(
      encode_coloring(g, 20, SbpOptions::sc_only()).formula);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_automorphisms(fg.graph, fg.vertex_colors));
  }
}
BENCHMARK(BM_AutomorphismFormulaGraph);

// The coloring detector as the pipeline's symmetry stage runs it on a
// rigid suite graph at K=20 with SC: the input-graph search proves it
// rigid, and the 17 color transpositions are emitted in closed form
// after two verifier checks instead of searching the formula graph.
Graph suite_graph(const std::string& name) {
  for (Instance& inst : dimacs_suite()) {
    if (inst.name == name) return std::move(inst.graph);
  }
  return Graph();
}

void run_closed_form(benchmark::State& state, const std::string& name) {
  const Graph g = suite_graph(name);
  const ColoringEncoding enc = encode_coloring(g, 20, SbpOptions::sc_only());
  const MinorFaults faults;
  for (auto _ : state) {
    const SymmetryInfo info =
        detect_coloring_symmetries(g, enc, SbpOptions::sc_only());
    if (!info.closed_form) state.SkipWithError("formula graph searched");
    benchmark::DoNotOptimize(info.generators.data());
  }
  faults.report(state);
}

void BM_ColoringSymmetryClosedForm(benchmark::State& state) {
  run_closed_form(state, "DSJC125.1");
}
BENCHMARK(BM_ColoringSymmetryClosedForm);

// zeroin.i.1, the suite's median instance under suite-sbp, where the
// index build and the checks dominate its set-up (86k constraints).
void BM_ColoringSymmetryClosedFormZeroin(benchmark::State& state) {
  run_closed_form(state, "zeroin.i.1");
}
BENCHMARK(BM_ColoringSymmetryClosedFormZeroin);

void BM_FormulaGraphBuild(benchmark::State& state) {
  const Graph g = make_random_gnm(125, 736, 0xD51);
  const ColoringEncoding enc = encode_coloring(g, 20);
  const MinorFaults faults;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_formula_graph(enc.formula));
  }
  faults.report(state);
}
BENCHMARK(BM_FormulaGraphBuild);

// Loading a formula into the engine, the fixed cost between the SBP
// stage and the first decision: one CdclSolver constructed per iteration.
void run_engine_load(benchmark::State& state, const Formula& formula) {
  const SolverConfig config = profile_config(SolverKind::PbsII);
  const MinorFaults faults;
  const RetiredInstructions instructions;
  for (auto _ : state) {
    CdclSolver solver(formula, config);
    benchmark::DoNotOptimize(solver.live_clauses());
  }
  faults.report(state);
  instructions.report(state);
  state.counters["clauses"] = static_cast<double>(formula.num_clauses());
}

// queen8_12's K=20 SC encoding with its Shatter SBPs added (the suite-sbp
// configuration).
void BM_EngineLoad(benchmark::State& state) {
  ColoringEncoding enc =
      encode_coloring(make_queen_graph(8, 12), 20, SbpOptions::sc_only());
  shatter(enc.formula);
  run_engine_load(state, enc.formula);
}
BENCHMARK(BM_EngineLoad);

// The SAT loop's CNF (NU on) of the DSJC125.9 shape, G(125, 6961), at
// its K = 47: about 99 % of its clauses are binary.
void BM_EngineLoadBinaryCnf(benchmark::State& state) {
  const ColoringEncoding enc = encode_k_coloring_cnf(
      make_random_gnm(125, 6961, 0xD59), 47, SbpOptions::nu_only());
  run_engine_load(state, enc.formula);
}
BENCHMARK(BM_EngineLoadBinaryCnf);

// The formula's share of the set-up ahead of EngineLoad, in the same
// configuration: queen8_12's K=20 SC encoding, its Shatter lex-leader
// SBPs, and the formula's destruction, per iteration. The generators are
// found once outside the loop, so the automorphism search stays out.
void BM_ColoringSetup(benchmark::State& state) {
  const Graph g = make_queen_graph(8, 12);
  const std::vector<Perm> generators =
      detect_symmetries(encode_coloring(g, 20, SbpOptions::sc_only()).formula)
          .generators;
  int clauses = 0;
  const MinorFaults faults;
  const RetiredInstructions instructions;
  for (auto _ : state) {
    ColoringEncoding enc = encode_coloring(g, 20, SbpOptions::sc_only());
    add_lex_leader_sbps(enc.formula, generators);
    clauses = enc.formula.num_clauses();
    benchmark::DoNotOptimize(clauses);
  }  // the formula is destroyed inside the timed loop
  faults.report(state);
  instructions.report(state);
  state.counters["clauses"] = static_cast<double>(clauses);
}
BENCHMARK(BM_ColoringSetup);

// Generator verification as the Shatter flow runs it: each iteration
// indexes the formula once (SymmetryVerifier) and checks every generator
// the search returned against it, on the K=20 SC encoding of `g`.
void run_symmetry_verify(benchmark::State& state, const Graph& g) {
  const ColoringEncoding enc = encode_coloring(g, 20, SbpOptions::sc_only());
  const SymmetryInfo info = detect_symmetries(enc.formula);
  std::int64_t verified = 0;
  const MinorFaults faults;
  const RetiredInstructions instructions;
  for (auto _ : state) {
    SymmetryVerifier verifier(enc.formula);
    for (const Perm& p : info.generators) {
      benchmark::DoNotOptimize(verifier.is_symmetry(p));
    }
    verified += static_cast<std::int64_t>(info.generators.size());
  }
  faults.report(state);
  instructions.report(state);
  state.counters["generators_per_sec"] = benchmark::Counter(
      static_cast<double>(verified), benchmark::Counter::kIsRate);
}

// queen8_8: 18 generators on a suite-sized encoding.
void BM_SymmetryVerify(benchmark::State& state) {
  run_symmetry_verify(state, make_queen_graph(8, 8));
}
BENCHMARK(BM_SymmetryVerify);

// The DSJC125.9 shape, G(125, 6961): color swaps that each touch ~14k
// binary clauses, where the per-generator cost dominates.
void BM_SymmetryVerifyDense(benchmark::State& state) {
  run_symmetry_verify(state, make_random_gnm(125, 6961, 0xD59));
}
BENCHMARK(BM_SymmetryVerifyDense);

// miles250, where the formula graph is searched: 30 generators, each
// moving a few hundred of the 5,160 literal codes. One verifier checks
// them all per iteration and its index is built outside the timed loop,
// so the time is the per-call cost alone, which grows with the
// occurrences of the moved literals; a scan of the whole index per call
// would multiply it.
void BM_SymmetryVerifySparse(benchmark::State& state) {
  const ColoringEncoding enc =
      encode_coloring(suite_graph("miles250"), 20, SbpOptions::sc_only());
  const SymmetryInfo info = detect_symmetries(enc.formula);
  SymmetryVerifier verifier(enc.formula);
  std::int64_t verified = 0;
  const MinorFaults faults;
  const RetiredInstructions instructions;
  for (auto _ : state) {
    for (const Perm& p : info.generators) {
      benchmark::DoNotOptimize(verifier.is_symmetry(p));
    }
    verified += static_cast<std::int64_t>(info.generators.size());
  }
  faults.report(state);
  instructions.report(state);
  state.counters["generators"] =
      static_cast<double>(info.generators.size());
  state.counters["generators_per_sec"] = benchmark::Counter(
      static_cast<double>(verified), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SymmetryVerifySparse);

void BM_ShatterMyciel(benchmark::State& state) {
  const Graph g = make_myciel_dimacs(4);
  for (auto _ : state) {
    ColoringEncoding enc = encode_coloring(g, 10);
    benchmark::DoNotOptimize(shatter(enc.formula, SolveBudget(10.0)));
  }
}
BENCHMARK(BM_ShatterMyciel);

void BM_GreedyClique(benchmark::State& state) {
  const Graph g = make_random_gnm(200, 4000, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_clique(g));
  }
}
BENCHMARK(BM_GreedyClique);

// The SAT loop's exact clique bound on the DSJC125.9 shape, G(125, 6961):
// the one suite instance whose clique number the node cap leaves unproved,
// so every iteration runs the full capped search.
void BM_MaxCliqueCapped(benchmark::State& state) {
  const Graph g = make_random_gnm(125, 6961, 0xD59);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        max_clique(g, SolveBudget{}, nullptr, kSatLoopCliqueNodeCap));
  }
}
BENCHMARK(BM_MaxCliqueCapped);

void BM_DsaturHeuristic(benchmark::State& state) {
  const Graph g = make_random_gnm(200, 4000, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsatur_coloring(g));
  }
}
BENCHMARK(BM_DsaturHeuristic);

// The SAT loop's whole bounds stage (bounds_meet in exact_colorer.cpp):
// DSATUR, then max_clique at the loop's node cap with the DSATUR count as
// upper bound, on the zeroin.i.1 shape, the satloop workload's median
// instance, which these bounds close on their own.
void BM_SatLoopBounds(benchmark::State& state) {
  const Graph g = make_register_graph(211, 4100, 49, 0x2E01);
  for (auto _ : state) {
    const std::vector<int> coloring = dsatur_coloring(g);
    benchmark::DoNotOptimize(max_clique(g, SolveBudget{}, nullptr,
                                        kSatLoopCliqueNodeCap,
                                        Graph::count_colors(coloring)));
  }
}
BENCHMARK(BM_SatLoopBounds);

// DSATUR on a large sparse register graph with hubs: 20,000 vertices,
// 200,000 edges, max degree 3,882, 40 colors. Its time follows n + |E|
// and its memory the 40 colors in use; a per-pick scan of all n vertices
// or a flag row per vertex sized by the max degree shows here.
void BM_DsaturLargeSparse(benchmark::State& state) {
  const Graph g = make_register_graph(20000, 200000, 40, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsatur_coloring(g));
  }
}
BENCHMARK(BM_DsaturLargeSparse)->Unit(benchmark::kMillisecond);

void BM_DsaturBnbQueen55(benchmark::State& state) {
  const Graph g = make_queen_graph(5, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsatur_branch_and_bound(g));
  }
}
BENCHMARK(BM_DsaturBnbQueen55);

// ---- machine-readable output ----

/// Console reporter that also mirrors every finished run into a flat JSON
/// array so perf trajectories can be diffed across PRs without parsing
/// console output.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      // The trailing "/<number>" of a benchmark name is its range arg.
      const auto slash = row.name.rfind('/');
      if (slash != std::string::npos) {
        const std::string tail = row.name.substr(slash + 1);
        if (!tail.empty() &&
            tail.find_first_not_of("0123456789") == std::string::npos) {
          row.n = std::stoll(tail);
        }
      }
      row.reps = run.iterations;
      row.ns_per_op = run.GetAdjustedRealTime();
      const auto it = run.counters.find("propagations_per_sec");
      if (it != run.counters.end()) row.props_per_sec = it->second;
      rows_.push_back(std::move(row));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "  {\"name\": \"" << r.name << "\", \"n\": " << r.n
          << ", \"reps\": " << r.reps << ", \"ns_per_op\": " << r.ns_per_op
          << ", \"propagations_per_sec\": " << r.props_per_sec << "}"
          << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "]\n";
  }

 private:
  struct Row {
    std::string name;
    long long n = 0;
    long long reps = 0;
    double ns_per_op = 0.0;
    double props_per_sec = 0.0;
  };
  std::string path_;
  std::vector<Row> rows_;
};

}  // namespace
}  // namespace symcolor

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    // Says whether `instr_per_iter` can appear, and if not, why.
    const symcolor::InstructionCounter probe;
    benchmark::AddCustomContext(
        "instr_counter",
        probe.available() ? std::string("available")
                          : std::string("unavailable, perf_event_open: ") +
                                std::strerror(probe.error()));
  }
  const char* path = std::getenv("SYMCOLOR_BENCH_JSON");
  symcolor::JsonFileReporter reporter(path != nullptr ? path
                                                      : "BENCH_micro.json");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
