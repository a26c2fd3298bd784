#pragma once
// Graph automorphism search (the Saucy/Nauty stand-in).
//
// Individualization-refinement: descend a search tree whose nodes are
// ordered partitions, individualizing one vertex of the target cell per
// level. The first (leftmost) leaf fixes a base labeling; every other leaf
// whose refinement trace matches the first path is compared against the
// base labeling, and a match yields an automorphism generator. A node off
// the first path is first mapped position by position onto the first-path
// node at its depth; when that map is already an automorphism (and the
// node's cells are ascending, which makes it the map its first leaf would
// give), the subtree is not descended (Saucy's sparse exit). Discovered
// generators drive orbit pruning at first-path nodes (the Schreier
// argument), and the group order is accumulated as the product of
// first-path orbit sizes — Nauty's grpsize method.
//
// The search returns a *generating set*, not the whole group, exactly like
// Saucy; downstream symmetry breaking only consumes generators.

#include <cstdint>
#include <span>
#include <vector>

#include "automorphism/perm.h"
#include "graph/graph.h"
#include "util/budget.h"
#include "util/timer.h"

namespace symcolor {

struct AutomorphismResult {
  std::vector<Perm> generators;
  /// log10 of |Aut(G)| (0.0 for a rigid graph). Exact when `complete`.
  double log10_order = 0.0;
  std::int64_t nodes = 0;
  std::int64_t leaves = 0;      ///< a sparse exit counts as its leaf
  std::int64_t bad_leaves = 0;  ///< leaves that failed the adjacency check
  bool complete = true;         ///< false when the budget cut the search
  double seconds = 0.0;
};

/// Find automorphism-group generators of `graph` respecting the vertex
/// coloring `colors` (vertices may only map to vertices of equal color;
/// pass empty for uncolored). Deterministic for a fixed input. `budget`
/// is polled at every search node: a deadline or an interrupt() stops the
/// search with the generators found so far and `complete` false (its
/// counted caps do not apply).
AutomorphismResult find_automorphisms(const Graph& graph,
                                      std::span<const int> colors = {},
                                      const SolveBudget& budget = {});

/// True iff `perm` is a permutation that maps edges to edges and respects
/// `colors`. Only edges at moved vertices are looked up.
bool is_automorphism(const Graph& graph, std::span<const int> perm,
                     std::span<const int> colors = {});

}  // namespace symcolor
