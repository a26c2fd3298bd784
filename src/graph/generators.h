#pragma once
// Benchmark graph generators.
//
// The paper evaluates on 20 DIMACS coloring instances. Two of its families
// are mathematically defined and reproduced here *exactly*:
//   * queens  — queen graphs on an n x m chessboard
//   * myciel  — Mycielski's triangle-free construction
// The remaining families (books, football games, mileage, random DSJC,
// register allocation) are distributed as data files we cannot ship, so we
// provide deterministic synthetic generators that preserve each family's
// structural character (size, density, clique structure and hence
// chromatic number).

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace symcolor {

/// Queen graph: one vertex per square of a rows x cols board; two squares
/// are adjacent iff a queen on one attacks the other (same row, column, or
/// diagonal). queenN_N asks whether N non-attacking coloring classes exist.
Graph make_queen_graph(int rows, int cols);

/// Mycielski graph M_k: M_2 = K2 (an edge); M_{k+1} is the Mycielskian of
/// M_k. M_k is triangle-free with chromatic number exactly k.
/// myciel3 = M_4 (11 vertices), myciel4 = M_5 (23), myciel5 = M_6 (47)
/// in DIMACS naming; use make_myciel_dimacs for that convention.
Graph make_mycielski(int k);

/// DIMACS "mycielN": the Mycielski graph with chromatic number N + 1.
Graph make_myciel_dimacs(int n);

/// Erdos-Renyi G(n, m): exactly m distinct edges chosen uniformly.
/// Stand-in for the DSJC random family.
Graph make_random_gnm(int n, int m, std::uint64_t seed);

/// Book-style co-occurrence graph (anna/david/huck/jean stand-in): a
/// planted clique of `clique` "main characters" plus preferential-
/// attachment edges until exactly `m` edges exist. The planted clique
/// pins the chromatic number at >= clique, matching the real instances
/// whose chromatic number equals their max clique.
Graph make_book_graph(int n, int m, int clique, std::uint64_t seed);

/// Football-schedule-style graph (games120 stand-in): near-regular random
/// graph with a planted clique; mirrors the real instance's tight degree
/// distribution.
Graph make_games_graph(int n, int m, int clique, std::uint64_t seed);

/// Random geometric graph (miles stand-in): n points uniform in the unit
/// square, edge when Euclidean distance <= radius; the radius is tuned by
/// bisection until the edge count is as close to `m` as possible.
Graph make_geometric_graph(int n, int m, std::uint64_t seed);

/// Register-allocation interference graph (mulsol/zeroin stand-in): a
/// central clique of `pressure` simultaneously-live ranges (the register
/// pressure peak) plus short fringe live ranges overlapping a random
/// window of the clique. Chromatic number equals `pressure` exactly.
Graph make_register_graph(int n, int m, int pressure, std::uint64_t seed);

/// The 20-instance suite mirroring the paper's Table 1, in table order.
/// Deterministic: same seeds every call. `chromatic_number` holds the
/// generator's ground truth where it is pinned (planted clique or exact
/// family) and -1 where only measurement can tell.
std::vector<Instance> dimacs_suite();

/// The queens subfamily used by the paper's Appendix (Table 5).
std::vector<Instance> queens_suite();

}  // namespace symcolor
