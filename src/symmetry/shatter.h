#pragma once
// The Shatter flow: detect symmetries of a CNF+PB formula by reduction to
// graph automorphism, then break them with lex-leader SBPs appended as
// CNF clauses (the pre-processing pipeline of Aloul et al. that the paper
// uses for all instance-dependent symmetry breaking).

#include "automorphism/perm.h"
#include "automorphism/search.h"
#include "cnf/formula.h"
#include "symmetry/lexleader.h"
#include "util/timer.h"

namespace symcolor {

struct SymmetryInfo {
  /// Generators as literal permutations (closed under negation).
  std::vector<Perm> generators;
  /// log10 of the formula graph's group order (0 = rigid formula); it
  /// overcounts when the formula repeats a constraint, whose copies swap.
  double log10_order = 0.0;
  double detect_seconds = 0.0;
  bool complete = true;
  /// Graph automorphisms discarded as spurious (failed the formula-level
  /// verification); expected to be 0 for this library's encodings.
  int spurious_rejected = 0;
  /// Which route produced `generators`: the color transpositions in
  /// closed form after a search of the input graph
  /// (coloring/color_symmetry.h), or a search of the formula graph.
  bool closed_form = false;
  /// Vertices of the searched formula graph; 0 on the closed-form route.
  int formula_graph_vertices = 0;
};

/// Detect the symmetries of `formula` (Saucy stand-in on the colored
/// formula graph). Each returned generator is verified to be a true
/// formula symmetry; failures are counted and dropped, identity literal
/// maps (swapped copies of a constraint) dropped uncounted. The budget's
/// deadline and interrupt() are polled inside the automorphism search and
/// between generators: on a trip only the generators verified so far are
/// returned, and `complete` is false.
SymmetryInfo detect_symmetries(const Formula& formula,
                               const SolveBudget& budget = {});

struct ShatterStats {
  SymmetryInfo symmetry;
  LexLeaderStats sbp;
};

/// Full flow: detect symmetries, then append lex-leader SBPs to `formula`.
ShatterStats shatter(Formula& formula, const SolveBudget& budget = {},
                     int max_support = 0);

}  // namespace symcolor
