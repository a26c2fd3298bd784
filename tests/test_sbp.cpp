// Semantic tests for the four instance-independent SBP constructions,
// centred on the paper's Figure 1 worked example.
//
// Figure 1 graph: V1,V2,V3 form a triangle and V4 hangs off V3. Vertices
// are 0-indexed here (V1=0, V2=1, V3=2, V4=3) and colors 0-indexed, so
// the paper's "color 1" is color 0.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "automorphism/search.h"
#include "coloring/color_symmetry.h"
#include "coloring/encoder.h"
#include "coloring/sbp.h"
#include "graph/generators.h"
#include "pb/optimizer.h"
#include "symmetry/formula_graph.h"
#include "symmetry/lexleader.h"
#include "symmetry/shatter.h"
#include "util/rng.h"

namespace symcolor {
namespace {

Graph figure1_graph() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.finalize();
  return g;
}

/// Does construction `sbps` permit the given complete color assignment?
/// The x variables are pinned by unit clauses; auxiliary SBP variables
/// stay free, so satisfiability decides permission.
bool permitted(const Graph& g, int k, const SbpOptions& sbps,
               const std::vector<int>& colors) {
  ColoringEncoding enc = encode_k_coloring(g, k, sbps);
  for (int i = 0; i < g.num_vertices(); ++i) {
    enc.formula.add_unit(
        Lit::positive(enc.x(i, colors[static_cast<std::size_t>(i)])));
  }
  const OptResult r = solve_decision(enc.formula, {}, {});
  EXPECT_NE(r.status, OptStatus::Unknown);
  return r.status == OptStatus::Optimal;
}

/// Count permitted assignments by enumerating proper colorings of the
/// (tiny) graph directly and querying `permitted`.
int count_permitted(const Graph& g, int k, const SbpOptions& sbps) {
  const int n = g.num_vertices();
  int count = 0;
  std::vector<int> colors(static_cast<std::size_t>(n), 0);
  for (;;) {
    if (g.is_proper_coloring(colors) && permitted(g, k, sbps, colors)) {
      ++count;
    }
    int i = 0;
    while (i < n && ++colors[static_cast<std::size_t>(i)] == k) {
      colors[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return count;
}

// ---- NU: null-color elimination ----

TEST(NullColor, BansGapsInColorUsage) {
  const Graph g = figure1_graph();
  // Paper Figure 1(c): colors {1,3,4} (0-indexed {0,2,3}) banned...
  EXPECT_FALSE(permitted(g, 4, SbpOptions::nu_only(), {0, 2, 3, 0}));
  // ... colors {1,2,3} (0-indexed {0,1,2}) permitted.
  EXPECT_TRUE(permitted(g, 4, SbpOptions::nu_only(), {0, 1, 2, 0}));
}

TEST(NullColor, AllowsAnyOrderOfUsedPrefix) {
  const Graph g = figure1_graph();
  // Non-null colors may still permute freely under NU.
  EXPECT_TRUE(permitted(g, 4, SbpOptions::nu_only(), {1, 0, 2, 1}));
  EXPECT_TRUE(permitted(g, 4, SbpOptions::nu_only(), {2, 1, 0, 2}));
}

TEST(NullColor, PermittedCountMatchesTheory) {
  // 3-colorings of the figure-1 graph: 2 partitions x 3! orders = 12
  // proper colorings with exactly 3 colors out of K=4, plus 2x4!/1... with
  // K=4 every proper coloring uses 3 or 4 colors; 4-color colorings:
  // 2 partitions cannot make 4 non-empty classes on 4 vertices unless all
  // classes are singletons, which needs V1..V4 pairwise... V4 not adjacent
  // to V1/V2 so singleton partition is proper: 4! = 24 colorings.
  // Total proper: 12 + 24 = 36. Under NU, 3-color solutions must use
  // colors {0,1,2} (12 -> 2x3! = 12*? ) — exactly the 2x3! = 12 minus the
  // ones using a gap: all 3! orders on colors {0,1,2} stay: 2*6 = 12.
  // 4-color ones all survive (no null color): 24. NU total = 12 + 24 = 36
  // minus gapped 3-color ones (2 partitions x (4!/1! - 3!) = 2*18 = 36)...
  // Simpler: trust relative ordering checks below.
  const Graph g = figure1_graph();
  const int none = count_permitted(g, 3, SbpOptions::none());
  const int nu = count_permitted(g, 3, SbpOptions::nu_only());
  // With K = 3 and chi = 3 there are no null colors: NU changes nothing.
  EXPECT_EQ(none, nu);
  EXPECT_EQ(none, 12);  // 2 partitions x 3! color orders
}

TEST(NullColor, ReducesCountWhenNullColorsExist) {
  // Triangle alone with K=4: one partition, 4!/1! = 24 orderings of 3
  // used colors among 4; NU keeps only those using prefix {0,1,2}: 3! = 6.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  EXPECT_EQ(count_permitted(g, 4, SbpOptions::none()), 24);
  EXPECT_EQ(count_permitted(g, 4, SbpOptions::nu_only()), 6);
}

// ---- CA: cardinality ordering ----

TEST(Cardinality, LargestClassGetsLowestColor) {
  const Graph g = figure1_graph();
  // Partition {{V1,V4},{V2},{V3}}: the size-2 class must take color 0.
  EXPECT_TRUE(permitted(g, 4, SbpOptions::ca_only(), {0, 1, 2, 0}));
  EXPECT_TRUE(permitted(g, 4, SbpOptions::ca_only(), {0, 2, 1, 0}));
  // Figure 1(d) left: the size-2 class on color 3 is banned.
  EXPECT_FALSE(permitted(g, 4, SbpOptions::ca_only(), {2, 0, 1, 2}));
  EXPECT_FALSE(permitted(g, 4, SbpOptions::ca_only(), {1, 0, 2, 1}));
}

TEST(Cardinality, SubsumesNullColorElimination) {
  const Graph g = figure1_graph();
  // A gap (null color before used color) violates CA too.
  EXPECT_FALSE(permitted(g, 4, SbpOptions::ca_only(), {0, 2, 3, 0}));
}

TEST(Cardinality, TiedClassesStillPermuteFreely) {
  const Graph g = figure1_graph();
  // {V2} and {V3} are both singletons: colors 1 and 2 interchange.
  EXPECT_TRUE(permitted(g, 4, SbpOptions::ca_only(), {0, 1, 2, 0}));
  EXPECT_TRUE(permitted(g, 4, SbpOptions::ca_only(), {0, 2, 1, 0}));
}

TEST(Cardinality, StrictlyStrongerThanNuOnTriangleWithSlack) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  const int nu = count_permitted(g, 4, SbpOptions::nu_only());
  const int ca = count_permitted(g, 4, SbpOptions::ca_only());
  EXPECT_EQ(ca, nu);  // all classes are singletons: CA == NU here
  // On the figure-1 graph the size-2 class breaks ties: CA < NU.
  const Graph fig = figure1_graph();
  EXPECT_LT(count_permitted(fig, 3, SbpOptions::ca_only()),
            count_permitted(fig, 3, SbpOptions::nu_only()));
}

// ---- LI: lowest-index ordering ----

TEST(LowestIndex, UniqueAssignmentPerPartition) {
  const Graph g = figure1_graph();
  // Partition {{V1,V4},{V2},{V3}}: only {0,1,2,0} survives (paper 1(e)).
  EXPECT_TRUE(permitted(g, 4, SbpOptions::li_only(), {0, 1, 2, 0}));
  EXPECT_FALSE(permitted(g, 4, SbpOptions::li_only(), {0, 2, 1, 0}));
  // Partition {{V1},{V2,V4},{V3}}: only {0,1,2,1} survives.
  EXPECT_TRUE(permitted(g, 4, SbpOptions::li_only(), {0, 1, 2, 1}));
  EXPECT_FALSE(permitted(g, 4, SbpOptions::li_only(), {1, 0, 2, 0}));
}

TEST(LowestIndex, CompleteValueSymmetryBreaking) {
  // Exactly one permitted assignment per partition into independent sets:
  // the figure-1 graph has 2 three-class partitions, so K=3 gives 2.
  const Graph g = figure1_graph();
  EXPECT_EQ(count_permitted(g, 3, SbpOptions::li_only()), 2);
}

TEST(LowestIndex, VertexZeroAlwaysColorZero) {
  const Graph g = figure1_graph();
  for (int c = 1; c < 3; ++c) {
    EXPECT_FALSE(permitted(g, 3, SbpOptions::li_only(), {c, 0, 3 - c, c}));
  }
}

TEST(LowestIndex, SubsumesNullColorElimination) {
  // Every LI-permitted assignment uses a gap-free color prefix: a used
  // color k+1 forces color k to appear at a strictly smaller index. (LI
  // does NOT imply CA — it picks the lowest-index representative of each
  // partition, not the cardinality-sorted one.)
  const Graph g = figure1_graph();
  const int k = 4;
  const int n = g.num_vertices();
  std::vector<int> colors(static_cast<std::size_t>(n), 0);
  for (;;) {
    if (g.is_proper_coloring(colors) &&
        permitted(g, k, SbpOptions::li_only(), colors)) {
      EXPECT_TRUE(permitted(g, k, SbpOptions::nu_only(), colors));
    }
    int i = 0;
    while (i < n && ++colors[static_cast<std::size_t>(i)] == k) {
      colors[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == n) break;
  }
}

TEST(LowestIndex, DestroysAllFormulaSymmetries) {
  // Paper Table 2: with LI, Saucy finds no symmetries at all — not even
  // the V1<->V2 vertex swap.
  const Graph g = figure1_graph();
  const ColoringEncoding enc = encode_coloring(g, 3, SbpOptions::li_only());
  const SymmetryInfo info = detect_symmetries(enc.formula);
  EXPECT_DOUBLE_EQ(info.log10_order, 0.0);
  EXPECT_TRUE(info.generators.empty());
}

TEST(LowestIndex, NuAndCaPreserveVertexSwap) {
  // NU keeps the instance-dependent V1<->V2 swap alive (paper Section 3.3
  // discussion), so the encoded formula still has symmetries.
  const Graph g = figure1_graph();
  const ColoringEncoding enc = encode_coloring(g, 3, SbpOptions::nu_only());
  const SymmetryInfo info = detect_symmetries(enc.formula);
  EXPECT_GT(info.log10_order, 0.0);
}

// ---- LIq: the paper-literal quadratic LI variant ----

TEST(LowestIndexPaperLiteral, DescendingConvention) {
  // The paper's ordering clause makes lowest indices *descend* with the
  // color number: partition {{V1,V4},{V2},{V3}} keeps only {2,1,0,2}.
  const Graph g = figure1_graph();
  EXPECT_TRUE(permitted(g, 4, SbpOptions::li_paper(), {2, 1, 0, 2}));
  EXPECT_FALSE(permitted(g, 4, SbpOptions::li_paper(), {0, 1, 2, 0}));
  EXPECT_FALSE(permitted(g, 4, SbpOptions::li_paper(), {0, 2, 1, 0}));
}

TEST(LowestIndexPaperLiteral, CompletePerPartition) {
  // Same completeness as the chained LI: one assignment per partition.
  const Graph g = figure1_graph();
  EXPECT_EQ(count_permitted(g, 3, SbpOptions::li_paper()), 2);
}

TEST(LowestIndexPaperLiteral, QuadraticallyLarger) {
  const Graph g = figure1_graph();
  const ColoringEncoding chained =
      encode_coloring(g, 4, SbpOptions::li_only());
  const ColoringEncoding quadratic =
      encode_coloring(g, 4, SbpOptions::li_paper());
  // nK auxiliaries instead of 2nK, but pairwise exclusions dominate as n
  // grows; on this tiny graph sizes are comparable, so check var counts.
  EXPECT_EQ(quadratic.sbp_vars, 4 * 4);
  EXPECT_EQ(chained.sbp_vars, 2 * 4 * 4);
}

TEST(LowestIndexPaperLiteral, OptimalValuePreserved) {
  const Graph g = figure1_graph();
  const ColoringEncoding enc = encode_coloring(g, 4, SbpOptions::li_paper());
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(r.status, OptStatus::Optimal);
  EXPECT_EQ(r.best_value, 3);
}

// ---- SC: selective coloring ----

TEST(SelectiveColoring, PinsMaxDegreeVertexAndNeighbour) {
  const Graph g = figure1_graph();
  const auto [first, second] = selective_coloring_pins(g);
  EXPECT_EQ(first, 2);   // V3 has degree 3
  EXPECT_EQ(second, 0);  // V1: highest-degree neighbour (tie -> smallest)
}

TEST(SelectiveColoring, OnlyPinnedColoringsPermitted) {
  const Graph g = figure1_graph();
  // V3 must take color 0 and V1 color 1.
  EXPECT_TRUE(permitted(g, 3, SbpOptions::sc_only(), {1, 2, 0, 1}));
  EXPECT_FALSE(permitted(g, 3, SbpOptions::sc_only(), {0, 1, 2, 0}));
}

TEST(SelectiveColoring, EdgelessGraphNoSecondPin) {
  Graph g(3);
  g.finalize();
  const auto [first, second] = selective_coloring_pins(g);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, -1);
}

TEST(ColorFreedom, RowsStateTheirFreeColorsAndPins) {
  const Graph g = figure1_graph();
  const ColorFreedom none = color_freedom(g, 4, SbpOptions::none());
  EXPECT_TRUE(none.pinned.empty());
  EXPECT_EQ(none.first_free, 0);
  const ColorFreedom sc = color_freedom(g, 4, SbpOptions::sc_only());
  EXPECT_EQ(sc.pinned, (std::vector<int>{2, 0}));
  EXPECT_EQ(sc.first_free, 2);
  // One color leaves room for SC's first pin only.
  EXPECT_EQ(color_freedom(g, 1, SbpOptions::sc_only()).pinned,
            (std::vector<int>{2}));
  for (const SbpOptions& row :
       {SbpOptions::nu_only(), SbpOptions::ca_only(), SbpOptions::li_only(),
        SbpOptions::nu_sc(), SbpOptions::li_paper()}) {
    EXPECT_EQ(color_freedom(g, 4, row).first_free, -1) << row.label();
  }
  EXPECT_EQ(color_freedom(g, 4, SbpOptions::nu_sc()).pinned,
            (std::vector<int>{2, 0}));
}

TEST(SelectiveColoring, AddsExactlyTwoUnitClauses) {
  const Graph g = figure1_graph();
  const ColoringEncoding plain = encode_coloring(g, 3);
  const ColoringEncoding sc = encode_coloring(g, 3, SbpOptions::sc_only());
  EXPECT_EQ(sc.formula.num_clauses() - plain.formula.num_clauses(), 2);
  EXPECT_EQ(sc.sbp_clauses, 2);
}

// ---- optimality preservation across all constructions ----

class SbpRowTest : public ::testing::TestWithParam<int> {};

TEST_P(SbpRowTest, OptimalValuePreserved) {
  const SbpOptions sbps = paper_sbp_rows()[static_cast<std::size_t>(GetParam())];
  const Graph g = figure1_graph();
  const ColoringEncoding enc = encode_coloring(g, 4, sbps);
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  ASSERT_EQ(r.status, OptStatus::Optimal) << sbps.label();
  EXPECT_EQ(r.best_value, 3) << sbps.label();
  EXPECT_TRUE(g.is_proper_coloring(enc.decode(r.model))) << sbps.label();
}

TEST_P(SbpRowTest, InfeasibilityPreserved) {
  const SbpOptions sbps = paper_sbp_rows()[static_cast<std::size_t>(GetParam())];
  Graph g(4);  // K4 needs 4 colors; give only 3
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) g.add_edge(u, v);
  }
  g.finalize();
  const ColoringEncoding enc = encode_coloring(g, 3, sbps);
  const OptResult r = minimize(enc.formula, {}, {}, SearchStrategy::Linear);
  EXPECT_EQ(r.status, OptStatus::Infeasible) << sbps.label();
}

TEST_P(SbpRowTest, SizeStatisticsConsistent) {
  const SbpOptions sbps = paper_sbp_rows()[static_cast<std::size_t>(GetParam())];
  const Graph g = figure1_graph();
  const ColoringEncoding plain = encode_coloring(g, 4);
  const ColoringEncoding with = encode_coloring(g, 4, sbps);
  EXPECT_EQ(with.formula.num_clauses() - plain.formula.num_clauses(),
            with.sbp_clauses);
  EXPECT_EQ(with.formula.num_pb() - plain.formula.num_pb(),
            with.sbp_pb_constraints);
  EXPECT_EQ(with.formula.num_vars() - plain.formula.num_vars(), with.sbp_vars);
}

INSTANTIATE_TEST_SUITE_P(AllRows, SbpRowTest, ::testing::Range(0, 7));

// ---- color symmetries in closed form (coloring/color_symmetry.h) ----

/// Detects the symmetries of `enc` both ways and expects the formula-graph
/// search's answer, plus `rejected` spurious generators for a closed form
/// that failed verification; returns the coloring detector's result.
SymmetryInfo expect_same_as_formula_search(const Graph& g,
                                           const ColoringEncoding& enc,
                                           const SbpOptions& sbps,
                                           int rejected = 0) {
  const SymmetryInfo fast = detect_coloring_symmetries(g, enc, sbps);
  const SymmetryInfo slow = detect_symmetries(enc.formula);
  EXPECT_EQ(fast.generators, slow.generators) << sbps.label();
  EXPECT_EQ(fast.log10_order, slow.log10_order) << sbps.label();
  EXPECT_EQ(fast.complete, slow.complete) << sbps.label();
  EXPECT_TRUE(fast.complete);
  EXPECT_EQ(fast.spurious_rejected, slow.spurious_rejected + rejected);
  EXPECT_EQ(fast.formula_graph_vertices,
            fast.closed_form ? 0 : slow.formula_graph_vertices);
  return fast;
}

/// A rigid G(n, m): the first seed whose graph has no automorphism.
Graph rigid_gnm(int n, int m, std::uint64_t seed) {
  for (;; ++seed) {
    Graph g = make_random_gnm(n, m, seed);
    if (find_automorphisms(g).generators.empty()) return g;
  }
}

TEST(ColorSymmetry, SuiteMatchesFormulaSearchAndSkipsItOnRigidGraphs) {
  const std::set<std::string> rigid = {
      "anna",      "david",     "DSJC125.1", "DSJC125.9", "games120",
      "huck",      "jean",      "mulsol.i.2", "mulsol.i.4", "zeroin.i.1",
      "zeroin.i.2", "zeroin.i.3"};
  for (const SbpOptions& sbps : {SbpOptions::none(), SbpOptions::sc_only()}) {
    std::set<std::string> closed;
    for (const Instance& inst : dimacs_suite()) {
      SCOPED_TRACE(inst.name);
      const ColoringEncoding enc = encode_coloring(inst.graph, 20, sbps);
      if (expect_same_as_formula_search(inst.graph, enc, sbps).closed_form) {
        closed.insert(inst.name);
      }
    }
    EXPECT_EQ(closed, rigid) << sbps.label();
  }
}

TEST(ColorSymmetry, ClosedFormGeneratorsAreAdjacentColorTranspositions) {
  const Graph g = rigid_gnm(12, 20, 1);
  const ColoringEncoding enc = encode_coloring(g, 6, SbpOptions::sc_only());
  const SymmetryInfo info =
      detect_coloring_symmetries(g, enc, SbpOptions::sc_only());
  ASSERT_TRUE(info.closed_form);
  // Colors 2..5 are free: (4 5), (3 4), (2 3), a group of 4! = 24.
  ASSERT_EQ(info.generators.size(), 3U);
  EXPECT_NEAR(info.log10_order, std::log10(24.0), 1e-12);
  for (std::size_t i = 0; i < info.generators.size(); ++i) {
    const int j = 4 - static_cast<int>(i);
    const Perm& p = info.generators[i];
    for (int v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(p[static_cast<std::size_t>(Lit::positive(enc.x(v, j)).code())],
                Lit::positive(enc.x(v, j + 1)).code());
      EXPECT_EQ(p[static_cast<std::size_t>(Lit::negative(enc.x(v, j)).code())],
                Lit::negative(enc.x(v, j + 1)).code());
      EXPECT_EQ(p[static_cast<std::size_t>(Lit::positive(enc.x(v, 0)).code())],
                Lit::positive(enc.x(v, 0)).code());
    }
    EXPECT_EQ(p[static_cast<std::size_t>(Lit::positive(enc.y(j + 1)).code())],
              Lit::positive(enc.y(j)).code());
  }
}

TEST(ColorSymmetry, RandomRigidGraphsMatchFormulaSearch) {
  int closed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int n = 8 + static_cast<int>(seed) * 2;
    const Graph g = rigid_gnm(n, n * 2, seed * 101);
    for (const int k : {2, 3, 5, 8}) {
      for (const SbpOptions& sbps :
           {SbpOptions::none(), SbpOptions::sc_only()}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " K=" + std::to_string(k));
        closed += expect_same_as_formula_search(
                      g, encode_coloring(g, k, sbps), sbps).closed_form;
        closed += expect_same_as_formula_search(
                      g, encode_k_coloring(g, k, sbps), sbps).closed_form;
      }
    }
  }
  EXPECT_EQ(closed, 12 * 4 * 2 * 2);
}

TEST(ColorSymmetry, OrderingRowsFallBackUnchanged) {
  const Graph g = rigid_gnm(14, 30, 7);
  for (const SbpOptions& sbps :
       {SbpOptions::nu_only(), SbpOptions::nu_sc(), SbpOptions::ca_only(),
        SbpOptions::li_only(), SbpOptions::li_paper()}) {
    const SymmetryInfo info =
        expect_same_as_formula_search(g, encode_coloring(g, 5, sbps), sbps);
    EXPECT_FALSE(info.closed_form) << sbps.label();
    EXPECT_GT(info.formula_graph_vertices, 0) << sbps.label();
  }
}

TEST(ColorSymmetry, EdgeCasesMatchFormulaSearch) {
  const Graph empty = [] {
    Graph g(0);
    g.finalize();
    return g;
  }();
  const Graph edgeless = [] {
    Graph g(4);
    g.finalize();
    return g;
  }();
  const Graph single = [] {
    Graph g(1);
    g.finalize();
    return g;
  }();
  const Graph rigid = rigid_gnm(10, 16, 3);
  for (const SbpOptions& sbps : {SbpOptions::none(), SbpOptions::sc_only()}) {
    SCOPED_TRACE(sbps.label());
    for (const int k : {1, 2, 5}) {
      SCOPED_TRACE("K=" + std::to_string(k));
      for (const Graph* g : {&empty, &single, &rigid}) {
        expect_same_as_formula_search(*g, encode_coloring(*g, k, sbps), sbps);
        expect_same_as_formula_search(*g, encode_k_coloring(*g, k, sbps),
                                      sbps);
      }
      // A graph without edges takes the formula route; vertices 1..3 of
      // this one are interchangeable even with SC's one pin.
      EXPECT_FALSE(expect_same_as_formula_search(
                       edgeless, encode_coloring(edgeless, k, sbps), sbps)
                       .closed_form);
    }
  }
  // K = 1 leaves no two colors to swap, and SC's unit clause there
  // repeats the vertex's one-literal exactly-one row: the formula graph
  // swaps the two, which counts in log10_order, so K = 1 takes that route.
  // The swap's literal map is the identity: no generator, and no spurious
  // one either.
  const SymmetryInfo one = expect_same_as_formula_search(
      rigid, encode_coloring(rigid, 1, SbpOptions::sc_only()),
      SbpOptions::sc_only());
  EXPECT_FALSE(one.closed_form);
  EXPECT_EQ(one.generators.size(), 0U);
  EXPECT_EQ(one.spurious_rejected, 0);
  EXPECT_GT(one.log10_order, 0.0);
  // SC on a single vertex pins it to color 0 and leaves colors 1..4.
  const SymmetryInfo sc = expect_same_as_formula_search(
      single, encode_coloring(single, 5, SbpOptions::sc_only()),
      SbpOptions::sc_only());
  EXPECT_EQ(sc.generators.size(), 3U);
  // Without an objective, one vertex at K = 2 has the complement of every
  // variable as a symmetry beside the color swap.
  EXPECT_EQ(expect_same_as_formula_search(
                single, encode_k_coloring(single, 2), SbpOptions::none())
                .generators.size(),
            2U);
}

TEST(ColorSymmetry, InterruptedBudgetKeepsOnlyVerifiedGenerators) {
  const Graph g = rigid_gnm(12, 20, 1);
  for (const SbpOptions& sbps : {SbpOptions::none(), SbpOptions::nu_only()}) {
    const ColoringEncoding enc = encode_coloring(g, 6, sbps);
    const SolveBudget budget;
    budget.interrupt();
    const SymmetryInfo info = detect_coloring_symmetries(g, enc, sbps, budget);
    EXPECT_FALSE(info.complete) << sbps.label();
    for (const Perm& p : info.generators) {
      EXPECT_TRUE(is_formula_symmetry(enc.formula, p)) << sbps.label();
    }
  }
}

TEST(ColorSymmetry, RejectedClosedFormFallsBackToFormulaSearch) {
  // A unit clause added after encoding fixes color 4 on vertex 0, so the
  // transpositions (3 4) and (4 5) are no symmetries any more.
  const Graph g = rigid_gnm(12, 20, 1);
  ColoringEncoding enc = encode_coloring(g, 6);
  enc.formula.add_unit(Lit::positive(enc.x(0, 4)));
  const SymmetryInfo info =
      detect_coloring_symmetries(g, enc, SbpOptions::none());
  const SymmetryInfo slow = detect_symmetries(enc.formula);
  EXPECT_FALSE(info.closed_form);
  EXPECT_EQ(info.spurious_rejected, slow.spurious_rejected + 1);
  EXPECT_EQ(info.generators, slow.generators);
  EXPECT_EQ(info.log10_order, slow.log10_order);
}

/// The literal map that swaps colors j and j + 1, built here apart from
/// the detector's own.
Perm swap_colors(const ColoringEncoding& enc, int j) {
  Perm perm = identity_perm(2 * enc.formula.num_vars());
  const auto swap = [&perm](Var a, Var b) {
    for (const bool neg : {false, true}) {
      const int ca = Lit(a, neg).code();
      const int cb = Lit(b, neg).code();
      perm[static_cast<std::size_t>(ca)] = cb;
      perm[static_cast<std::size_t>(cb)] = ca;
    }
  };
  for (int v = 0; v < enc.num_vertices; ++v) swap(enc.x(v, j), enc.x(v, j + 1));
  swap(enc.y(j), enc.y(j + 1));
  return perm;
}

/// Does every adjacent transposition of colors first_free..K-1 pass the
/// verifier, each checked on its own?
bool every_transposition_verifies(const ColoringEncoding& enc, int first_free) {
  SymmetryVerifier verifier(enc.formula);
  for (int j = first_free; j + 1 < enc.num_colors; ++j) {
    if (!verifier.is_symmetry(swap_colors(enc, j))) return false;
  }
  return true;
}

TEST(ColorSymmetry, ClosedFormRejectedWhenOnlyTheLastSwapHolds) {
  // x(0, 2) breaks (1 2) and (2 3), and so the cycle (0 1 2 3 4 5), but
  // (4 5) still holds: checking the last swap alone would accept.
  const Graph g = rigid_gnm(12, 20, 1);
  ColoringEncoding enc = encode_coloring(g, 6);
  enc.formula.add_unit(Lit::positive(enc.x(0, 2)));
  ASSERT_TRUE(is_formula_symmetry(enc.formula, swap_colors(enc, 4)));
  ASSERT_FALSE(is_formula_symmetry(enc.formula, swap_colors(enc, 1)));
  EXPECT_FALSE(expect_same_as_formula_search(g, enc, SbpOptions::none(), 1)
                   .closed_form);
}

TEST(ColorSymmetry, ClosedFormRejectedWhenOnlyTheCycleHolds) {
  // (x(0, j) | x(1, j+1 mod 5)) for every color j: the cycle
  // (0 1 2 3 4) maps the set onto itself, (3 4) does not.
  const Graph g = rigid_gnm(12, 20, 1);
  const int k = 5;
  ColoringEncoding enc = encode_coloring(g, k);
  for (int j = 0; j < k; ++j) {
    enc.formula.add_clause(
        {Lit::positive(enc.x(0, j)), Lit::positive(enc.x(1, (j + 1) % k))});
  }
  ASSERT_FALSE(is_formula_symmetry(enc.formula, swap_colors(enc, 3)));
  EXPECT_FALSE(expect_same_as_formula_search(g, enc, SbpOptions::none(), 1)
                   .closed_form);
}

TEST(ColorSymmetry, ClosedFormExactlyWhenEveryTranspositionVerifies) {
  // Rigid graphs with a random clause over x and y added after encoding:
  // the closed form must stand exactly when each adjacent transposition
  // of the free colors is a symmetry on its own.
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int n = 10 + 2 * static_cast<int>(seed);
    const Graph g = rigid_gnm(n, 2 * n, seed * 37);
    Rng rng(seed);
    for (const int k : {2, 3, 5, 8}) {
      for (const SbpOptions& sbps :
           {SbpOptions::none(), SbpOptions::sc_only()}) {
        for (int extra = 0; extra <= 2; ++extra) {
          SCOPED_TRACE("n=" + std::to_string(n) + " K=" + std::to_string(k) +
                       " " + sbps.label() + " extra=" + std::to_string(extra));
          ColoringEncoding enc = encode_coloring(g, k, sbps);
          const auto random_lit = [&] {
            const auto below = [&rng](std::uint64_t bound) {
              return static_cast<int>(rng.below(bound));
            };
            const int v = below(n + 1);  // n stands for y
            const int j = below(k);
            return Lit(v == n ? enc.y(j) : enc.x(v, j), below(2) == 1);
          };
          if (extra == 1) enc.formula.add_unit(random_lit());
          if (extra == 2) enc.formula.add_clause({random_lit(), random_lit()});
          const bool every = every_transposition_verifies(
              enc, color_freedom(g, k, sbps).first_free);
          const SymmetryInfo info =
              expect_same_as_formula_search(g, enc, sbps, every ? 0 : 1);
          EXPECT_EQ(info.closed_form, every);
          (every ? accepted : rejected) += 1;
        }
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ShatterSuiteTable, PinnedOutcomePerInstanceAtK20WithSc) {
  // The Shatter stage of the native pipeline on every suite instance at
  // K = 20 under SC: which route ran, the verified generators, the
  // spurious rejections and the lex-leader clauses they give. A change to
  // how generators are verified must leave every row as it is.
  struct Row {
    std::string name;
    bool closed_form;
    std::size_t generators;
    int spurious_rejected;
    int inst_dep_sbp_clauses;
  };
  const std::vector<Row> pinned = {
      {"anna", true, 17, 0, 14144},
      {"david", true, 17, 0, 8942},
      {"DSJC125.1", true, 17, 0, 12818},
      {"DSJC125.9", true, 17, 0, 12818},
      {"games120", true, 17, 0, 12308},
      {"huck", true, 17, 0, 7616},
      {"jean", true, 17, 0, 8228},
      {"miles250", false, 30, 0, 14658},
      {"mulsol.i.2", true, 17, 0, 19244},
      {"mulsol.i.4", true, 17, 0, 18938},
      {"myciel3", false, 18, 0, 1668},
      {"myciel4", false, 19, 0, 4330},
      {"myciel5", false, 19, 0, 8698},
      {"queen5_5", false, 18, 0, 3816},
      {"queen6_6", false, 18, 0, 5904},
      {"queen7_7", false, 18, 0, 7584},
      {"queen8_12", false, 18, 0, 15624},
      {"zeroin.i.1", true, 17, 0, 21590},
      {"zeroin.i.2", true, 17, 0, 21590},
      {"zeroin.i.3", true, 17, 0, 21080},
  };
  const std::vector<Instance> suite = dimacs_suite();
  ASSERT_EQ(suite.size(), pinned.size());
  std::size_t generators = 0;
  int clauses = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Instance& inst = suite[i];
    const Row& row = pinned[i];
    SCOPED_TRACE(inst.name);
    ASSERT_EQ(inst.name, row.name);
    ColoringEncoding enc = encode_coloring(inst.graph, 20, SbpOptions::sc_only());
    const SymmetryInfo info =
        detect_coloring_symmetries(inst.graph, enc, SbpOptions::sc_only());
    const int added =
        add_lex_leader_sbps(enc.formula, info.generators).clauses_added;
    EXPECT_TRUE(info.complete);
    EXPECT_EQ(info.closed_form, row.closed_form);
    EXPECT_EQ(info.generators.size(), row.generators);
    EXPECT_EQ(info.spurious_rejected, row.spurious_rejected);
    EXPECT_EQ(added, row.inst_dep_sbp_clauses);
    generators += info.generators.size();
    clauses += added;
  }
  // suitebench's suite-sbp pass: 362 generators, 241,598 SBP clauses.
  EXPECT_EQ(generators, 362U);
  EXPECT_EQ(clauses, 241598);
}

TEST(SbpSizes, MatchPaperFormulas) {
  const Graph g = figure1_graph();
  const int k = 4;
  // NU: K-1 binary clauses, no new vars or PB constraints.
  const ColoringEncoding nu = encode_coloring(g, k, SbpOptions::nu_only());
  EXPECT_EQ(nu.sbp_clauses, k - 1);
  EXPECT_EQ(nu.sbp_vars, 0);
  // CA: K-1 PB constraints.
  const ColoringEncoding ca = encode_coloring(g, k, SbpOptions::ca_only());
  EXPECT_EQ(ca.sbp_pb_constraints, k - 1);
  EXPECT_EQ(ca.sbp_clauses, 0);
  // LI: 2nK auxiliary variables.
  const ColoringEncoding li = encode_coloring(g, k, SbpOptions::li_only());
  EXPECT_EQ(li.sbp_vars, 2 * g.num_vertices() * k);
  EXPECT_GT(li.sbp_clauses, 4 * g.num_vertices() * k);
}

}  // namespace
}  // namespace symcolor
