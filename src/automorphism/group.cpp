#include "automorphism/group.h"

#include <cassert>
#include <cmath>
#include <set>
#include <stdexcept>

namespace symcolor {

PermGroup::PermGroup(int degree) : degree_(degree) {
  if (degree < 0) throw std::invalid_argument("negative degree");
}

std::pair<Perm, std::size_t> PermGroup::sift(Perm p) const {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Level& level = levels_[l];
    const int image = p[static_cast<std::size_t>(level.base_point)];
    const int idx = level.orbit_index_of[static_cast<std::size_t>(image)];
    if (idx < 0) return {std::move(p), l};
    // Divide out the transversal element mapping base -> image.
    p = compose(p, inverse(level.transversal[static_cast<std::size_t>(idx)]));
  }
  return {std::move(p), levels_.size()};
}

void PermGroup::add_generator(const Perm& g) {
  assert(static_cast<int>(g.size()) == degree_);
  assert(is_permutation(g));
  if (contains(g)) return;
  gens_.push_back(g);

  // Worklist Schreier-Sims: register the new element, then re-verify
  // Schreier generators of every dirty level until a fixpoint.
  std::set<std::size_t> dirty;

  // Registers a (pre-sifted residue of a) group element in the chain.
  auto register_element = [&](Perm p) {
    auto [residue, level] = sift(std::move(p));
    if (is_identity(residue)) return;
    if (level == levels_.size()) {
      Level fresh;
      for (int i = 0; i < degree_; ++i) {
        if (residue[static_cast<std::size_t>(i)] != i) {
          fresh.base_point = i;
          break;
        }
      }
      fresh.orbit_index_of.assign(static_cast<std::size_t>(degree_), -1);
      levels_.push_back(std::move(fresh));
    }
    // The residue fixes base[0..level-1], so it belongs to every
    // stabilizer S_0..S_level — and can enlarge each of those orbits
    // (it may move their non-base points).
    for (std::size_t i = 0; i <= level; ++i) {
      levels_[i].gens.push_back(residue);
      rebuild_orbit(i);
      dirty.insert(i);
    }
  };

  register_element(g);

  while (!dirty.empty()) {
    const std::size_t i = *dirty.begin();
    dirty.erase(dirty.begin());
    // Scan the Schreier generators of level i. On the first failure,
    // register the offender (which re-marks this level dirty) and
    // restart from the worklist — the registration rebuilt our orbit.
    // Registration may also push_back a fresh level, which invalidates
    // `lvl`: the loop conditions test `failed` first so they never read
    // through the dangling reference.
    Level& lvl = levels_[i];
    bool failed = false;
    for (std::size_t xi = 0; !failed && xi < lvl.orbit.size(); ++xi) {
      const int x = lvl.orbit[xi];
      for (std::size_t si = 0; !failed && si < lvl.gens.size(); ++si) {
        const Perm& s = lvl.gens[si];
        const int sx = s[static_cast<std::size_t>(x)];
        const int sx_idx = lvl.orbit_index_of[static_cast<std::size_t>(sx)];
        assert(sx_idx >= 0);
        Perm schreier = compose(
            compose(lvl.transversal[xi], s),
            inverse(lvl.transversal[static_cast<std::size_t>(sx_idx)]));
        if (is_identity(schreier)) continue;
        auto [residue, stop] = sift(std::move(schreier));
        (void)stop;
        if (!is_identity(residue)) {
          register_element(std::move(residue));
          dirty.insert(i);
          failed = true;
        }
      }
    }
  }
}


void PermGroup::rebuild_orbit(std::size_t level) {
  Level& lvl = levels_[level];
  lvl.orbit.clear();
  lvl.transversal.clear();
  lvl.orbit_index_of.assign(static_cast<std::size_t>(degree_), -1);
  lvl.orbit.push_back(lvl.base_point);
  lvl.transversal.push_back(identity_perm(degree_));
  lvl.orbit_index_of[static_cast<std::size_t>(lvl.base_point)] = 0;
  for (std::size_t head = 0; head < lvl.orbit.size(); ++head) {
    const int x = lvl.orbit[head];
    for (const Perm& s : lvl.gens) {
      const int y = s[static_cast<std::size_t>(x)];
      if (lvl.orbit_index_of[static_cast<std::size_t>(y)] >= 0) continue;
      lvl.orbit_index_of[static_cast<std::size_t>(y)] =
          static_cast<int>(lvl.orbit.size());
      lvl.orbit.push_back(y);
      lvl.transversal.push_back(compose(lvl.transversal[head], s));
    }
  }
}

bool PermGroup::contains(std::span<const int> p) const {
  if (static_cast<int>(p.size()) != degree_) return false;
  Perm copy(p.begin(), p.end());
  auto [residue, level] = sift(std::move(copy));
  (void)level;
  return is_identity(residue);
}

long double PermGroup::order() const {
  long double total = 1.0L;
  for (const Level& lvl : levels_) {
    total *= static_cast<long double>(lvl.orbit.size());
  }
  return total;
}

double PermGroup::log10_order() const {
  double total = 0.0;
  for (const Level& lvl : levels_) {
    total += std::log10(static_cast<double>(lvl.orbit.size()));
  }
  return total;
}

std::vector<int> PermGroup::orbit_of(int point) const {
  std::vector<int> orbit{point};
  std::vector<char> seen(static_cast<std::size_t>(degree_), 0);
  seen[static_cast<std::size_t>(point)] = 1;
  for (std::size_t head = 0; head < orbit.size(); ++head) {
    for (const Perm& g : gens_) {
      const int y = g[static_cast<std::size_t>(orbit[head])];
      if (!seen[static_cast<std::size_t>(y)]) {
        seen[static_cast<std::size_t>(y)] = 1;
        orbit.push_back(y);
      }
    }
  }
  return orbit;
}

}  // namespace symcolor
