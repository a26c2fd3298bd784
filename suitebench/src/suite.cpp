#include "suite.h"

#include <algorithm>

#include "graph/clique.h"
#include "graph/generators.h"

namespace suitebench {
namespace {

using symcolor::Graph;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SuiteInstance finish(std::string name, Graph graph, int chi, bool seeded) {
  SuiteInstance inst;
  inst.name = std::move(name);
  inst.graph = std::move(graph);
  inst.chi = chi;
  inst.chi_floor = std::max(
      chi, static_cast<int>(symcolor::greedy_clique(inst.graph).size()));
  inst.seeded = seeded;
  return inst;
}

/// The pinned seed of dimacs_suite() for kDefaultSeed, a derived one
/// otherwise.
std::uint64_t family_seed(std::uint64_t pinned, std::uint64_t seed) {
  if (seed == kDefaultSeed) return pinned;
  return splitmix64(pinned ^ splitmix64(seed));
}

}  // namespace

std::vector<SuiteInstance> make_suite(std::uint64_t seed) {
  using namespace symcolor;
  // Same table as dimacs_suite(): name, generator, pinned chi. Only the
  // seed argument of the seeded instances changes with `seed`; the
  // random, games and geometric instances are held (see the header).
  const auto s = [seed](std::uint64_t pinned) {
    return family_seed(pinned, seed);
  };
  std::vector<SuiteInstance> suite;
  const auto seeded = [&](const char* name, Graph g, int chi) {
    suite.push_back(finish(name, std::move(g), chi, true));
  };
  const auto fixed = [&](const char* name, Graph g, int chi) {
    suite.push_back(finish(name, std::move(g), chi, false));
  };
  seeded("anna", make_book_graph(138, 986, 11, s(0xA11A)), 11);
  seeded("david", make_book_graph(87, 812, 11, s(0xDA71D)), 11);
  fixed("DSJC125.1", make_random_gnm(125, 736, 0xD51), 5);
  fixed("DSJC125.9", make_random_gnm(125, 6961, 0xD59), -1);
  fixed("games120", make_games_graph(120, 1276, 9, 0x6A3E5), 9);
  seeded("huck", make_book_graph(74, 602, 11, s(0x4C8)), 11);
  seeded("jean", make_book_graph(80, 508, 10, s(0x1EA4)), 10);
  fixed("miles250", make_geometric_graph(128, 774, 0x313E5), 10);
  seeded("mulsol.i.2", make_register_graph(188, 3885, 31, s(0x3012)), 31);
  seeded("mulsol.i.4", make_register_graph(185, 3946, 31, s(0x3014)), 31);
  fixed("myciel3", make_myciel_dimacs(3), 4);
  fixed("myciel4", make_myciel_dimacs(4), 5);
  fixed("myciel5", make_myciel_dimacs(5), 6);
  fixed("queen5_5", make_queen_graph(5, 5), 5);
  fixed("queen6_6", make_queen_graph(6, 6), 7);
  fixed("queen7_7", make_queen_graph(7, 7), 7);
  fixed("queen8_12", make_queen_graph(8, 12), 12);
  seeded("zeroin.i.1", make_register_graph(211, 4100, 49, s(0x2E01)), 49);
  seeded("zeroin.i.2", make_register_graph(211, 3541, 30, s(0x2E02)), 30);
  seeded("zeroin.i.3", make_register_graph(206, 3540, 30, s(0x2E03)), 30);
  return suite;
}

}  // namespace suitebench
