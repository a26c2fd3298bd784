#pragma once
// Clique computation: a fast greedy heuristic (lower bound for the
// chromatic number, used to seed the exact colorer) and a small exact
// branch-and-bound maximum-clique solver, node-capped so that the SAT loop
// can afford it as its lower bound.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/budget.h"

namespace symcolor {

/// Greedy clique: repeatedly add the highest-degree vertex compatible with
/// the clique so far, restarting from each of the top-degree vertices and
/// keeping the best. Deterministic. Returns vertex ids of the clique.
std::vector<int> greedy_clique(const Graph& graph);

/// Exact maximum clique via branch and bound with greedy-coloring bounds
/// (a compact Tomita-style MCS), seeded with greedy_clique. Returns the
/// clique sorted ascending, never smaller than the greedy one.
///
/// The search stops early in three ways:
///  * after `node_cap` search nodes (<= 0 = unlimited). The cap is the
///    deterministic limit: the same graph and cap give the same clique on
///    every machine;
///  * when `budget` reports a trip (deadline or interrupt; its counted caps
///    do not apply);
///  * when the clique reaches `upper_bound` (<= 0 = none), an upper bound
///    on the clique number the caller already knows, such as the color
///    count of a proper coloring. That clique is maximum.
/// `*proved_optimal` (if non-null) is true iff the returned clique is
/// proved maximum: false after a node-cap or budget stop, true after the
/// search finished or met `upper_bound`.
std::vector<int> max_clique(const Graph& graph, const SolveBudget& budget = {},
                            bool* proved_optimal = nullptr,
                            std::int64_t node_cap = 0, int upper_bound = 0);

/// True iff `vertices` are pairwise adjacent in `graph`.
bool is_clique(const Graph& graph, const std::vector<int>& vertices);

/// All maximal cliques (Bron-Kerbosch with pivoting), each sorted
/// ascending. Enumeration stops after `max_count` cliques (0 = no limit)
/// and sets `*truncated` when the cutoff was hit.
std::vector<std::vector<int>> maximal_cliques(const Graph& graph,
                                              std::size_t max_count = 0,
                                              bool* truncated = nullptr);

/// All maximal independent sets = maximal cliques of the complement.
std::vector<std::vector<int>> maximal_independent_sets(
    const Graph& graph, std::size_t max_count = 0, bool* truncated = nullptr);

}  // namespace symcolor
