// The default seed must reproduce dimacs_suite() exactly; other seeds move
// only the seeded families.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "suite.h"

namespace suitebench {
namespace {

bool same_graph(const symcolor::Graph& a, const symcolor::Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  const auto ea = a.edges();
  const auto eb = b.edges();
  return std::equal(ea.begin(), ea.end(), eb.begin(), eb.end());
}

TEST(SuiteSeed, DefaultSeedReproducesTheLibrarySuite) {
  const auto reference = symcolor::dimacs_suite();
  const auto suite = make_suite(kDefaultSeed);
  ASSERT_EQ(suite.size(), reference.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, reference[i].name);
    if (reference[i].chromatic_number > 0) {  // the suite pins two more
      EXPECT_EQ(suite[i].chi, reference[i].chromatic_number);
    }
    EXPECT_TRUE(same_graph(suite[i].graph, reference[i].graph))
        << suite[i].name;
  }
}

TEST(SuiteSeed, OtherSeedsRegenerateOnlyTheSeededFamilies) {
  const auto base = make_suite(kDefaultSeed);
  const auto moved = make_suite(7);
  int changed = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto& a = base[i].graph;
    const auto& b = moved[i].graph;
    EXPECT_EQ(a.num_vertices(), b.num_vertices()) << base[i].name;
    EXPECT_EQ(base[i].chi, moved[i].chi) << base[i].name;
    if (!base[i].seeded) {
      EXPECT_TRUE(same_graph(a, b)) << base[i].name;
    } else if (!same_graph(a, b)) {
      ++changed;
    }
  }
  EXPECT_EQ(changed, 9);
}

TEST(SuiteSeed, SameSeedSameInputs) {
  const auto a = make_suite(12345);
  const auto b = make_suite(12345);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_graph(a[i].graph, b[i].graph)) << a[i].name;
  }
}

TEST(SuiteSeed, FloorsAreProvenBounds) {
  for (const SuiteInstance& inst : make_suite(3)) {
    EXPECT_GE(inst.chi_floor, 2) << inst.name;
    if (inst.chi > 0) EXPECT_EQ(inst.chi_floor, inst.chi) << inst.name;
  }
}

}  // namespace
}  // namespace suitebench
