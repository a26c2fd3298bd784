#include "symmetry/formula_graph.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <map>

#include "util/rng.h"

namespace symcolor {
namespace {

constexpr int kLiteralColor = 0;
constexpr int kClauseColor = 1;
constexpr int kObjectiveColor = 2;
constexpr int kFirstDynamicColor = 3;

/// Builder that counts vertices first, then materializes the graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(const Formula& formula) : formula_(formula) {
    const int lits = 2 * formula.num_vars();
    next_vertex_ = lits;
    // Count extra vertices: one per clause of size >= 3, one per
    // non-clausal PB constraint (plus coefficient groups), objective.
    for (std::span<const Lit> c : formula.clauses()) {
      if (c.size() >= 3 || c.size() == 1) ++extra_;  // unit clauses get markers
    }
    for (const PbConstraint& pb : formula.pb_constraints()) {
      if (pb.is_clause()) {
        if (pb.terms().size() >= 3 || pb.terms().size() == 1) ++extra_;
      } else {
        ++extra_;
        extra_ += coeff_vertex_count(coeff_groups(pb));
      }
    }
    if (formula.objective()) {
      ++extra_;
      extra_ += coeff_vertex_count(
          term_coeff_groups(formula.objective()->terms));
    }
  }

  FormulaGraph build() {
    FormulaGraph fg;
    const int lits = 2 * formula_.num_vars();
    fg.num_literal_vertices = lits;
    fg.graph.reset(lits + extra_);
    fg.vertex_colors.assign(static_cast<std::size_t>(lits + extra_),
                            kLiteralColor);
    graph_ = &fg.graph;
    colors_ = &fg.vertex_colors;

    // Boolean consistency edges.
    for (Var v = 0; v < formula_.num_vars(); ++v) {
      graph_->add_edge(Lit::positive(v).code(), Lit::negative(v).code());
    }
    for (std::span<const Lit> c : formula_.clauses()) add_clause_structure(c);
    for (const PbConstraint& pb : formula_.pb_constraints()) {
      if (pb.is_clause()) {
        std::vector<Lit> c;
        for (const PbTerm& t : pb.terms()) c.push_back(t.lit);
        add_clause_structure(c);
      } else {
        add_pb_structure(pb);
      }
    }
    if (formula_.objective()) add_objective_structure(*formula_.objective());
    // Every counted slot must have been used: leftover default-colored
    // vertices would masquerade as interchangeable literals and inject
    // spurious symmetries.
    assert(next_vertex_ == lits + extra_);
    fg.graph.finalize();
    return fg;
  }

 private:
  /// Terms grouped by coefficient value, keyed ascending.
  static std::map<std::int64_t, std::vector<Lit>> term_coeff_groups(
      std::span<const PbTerm> terms) {
    std::map<std::int64_t, std::vector<Lit>> groups;
    for (const PbTerm& t : terms) groups[t.coeff].push_back(t.lit);
    return groups;
  }
  static std::map<std::int64_t, std::vector<Lit>> coeff_groups(
      const PbConstraint& pb) {
    return term_coeff_groups(pb.terms());
  }

  /// Number of intermediate coefficient vertices the build step will
  /// create: none when all coefficients are 1 (terms attach directly).
  static int coeff_vertex_count(
      const std::map<std::int64_t, std::vector<Lit>>& groups) {
    if (groups.size() == 1 && groups.begin()->first == 1) return 0;
    return static_cast<int>(groups.size());
  }

  int fresh_vertex(int color) {
    (*colors_)[static_cast<std::size_t>(next_vertex_)] = color;
    return next_vertex_++;
  }

  int dynamic_color(const std::string& key) {
    const auto [it, inserted] =
        color_keys_.try_emplace(key, kFirstDynamicColor +
                                         static_cast<int>(color_keys_.size()));
    (void)inserted;
    return it->second;
  }

  void add_clause_structure(std::span<const Lit> c) {
    if (c.size() == 1) {
      // Unit clause: a private marker vertex pins the literal's identity
      // (a unit-constrained literal must not swap with a free one).
      const int marker = fresh_vertex(dynamic_color("unit"));
      graph_->add_edge(marker, c[0].code());
      return;
    }
    if (c.size() == 2) {
      graph_->add_edge(c[0].code(), c[1].code());
      return;
    }
    const int clause_vertex = fresh_vertex(kClauseColor);
    for (const Lit l : c) graph_->add_edge(clause_vertex, l.code());
  }

  void add_pb_structure(const PbConstraint& pb) {
    const int constraint_vertex =
        fresh_vertex(dynamic_color("pb:" + std::to_string(pb.bound())));
    const auto groups = coeff_groups(pb);
    if (groups.size() == 1 && groups.begin()->first == 1) {
      for (const Lit l : groups.begin()->second) {
        graph_->add_edge(constraint_vertex, l.code());
      }
      return;
    }
    for (const auto& [coeff, lits] : groups) {
      const int coeff_vertex =
          fresh_vertex(dynamic_color("coeff:" + std::to_string(coeff)));
      graph_->add_edge(constraint_vertex, coeff_vertex);
      for (const Lit l : lits) graph_->add_edge(coeff_vertex, l.code());
    }
  }

  void add_objective_structure(const Objective& objective) {
    const int objective_vertex = fresh_vertex(kObjectiveColor);
    const auto groups = term_coeff_groups(objective.terms);
    if (groups.size() == 1 && groups.begin()->first == 1) {
      for (const Lit l : groups.begin()->second) {
        graph_->add_edge(objective_vertex, l.code());
      }
      return;
    }
    for (const auto& [coeff, lits] : groups) {
      const int coeff_vertex =
          fresh_vertex(dynamic_color("objcoeff:" + std::to_string(coeff)));
      graph_->add_edge(objective_vertex, coeff_vertex);
      for (const Lit l : lits) graph_->add_edge(coeff_vertex, l.code());
    }
  }

  const Formula& formula_;
  Graph* graph_ = nullptr;
  std::vector<int>* colors_ = nullptr;
  int next_vertex_ = 0;
  int extra_ = 0;
  std::map<std::string, int> color_keys_;
};

}  // namespace

FormulaGraph build_formula_graph(const Formula& formula) {
  // Count unit clauses as extra vertices too (see add_clause_structure).
  GraphBuilder builder(formula);
  return builder.build();
}

Perm literal_permutation(const FormulaGraph& fg, std::span<const int> perm) {
  const int lits = fg.num_literal_vertices;
  Perm lit_perm(static_cast<std::size_t>(lits));
  for (int code = 0; code < lits; ++code) {
    const int image = perm[static_cast<std::size_t>(code)];
    if (image >= lits) return {};  // literal mapped onto a constraint vertex
    lit_perm[static_cast<std::size_t>(code)] = image;
  }
  // Boolean consistency: negation must commute with the permutation.
  for (int code = 0; code < lits; ++code) {
    if ((lit_perm[static_cast<std::size_t>(code)] ^ 1) !=
        lit_perm[static_cast<std::size_t>(code ^ 1)]) {
      return {};
    }
  }
  return lit_perm;
}

namespace {

/// Advance an epoch stamp; on wrap-around clear every slot so no stale
/// stamp can equal the new epoch.
std::uint32_t next_epoch(std::vector<std::uint32_t>& stamps,
                         std::uint32_t& epoch) {
  if (++epoch == 0) {
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 1;
  }
  return epoch;
}

/// The key set's empty slot; no key has two codes of 2^32 - 1.
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// The exact key of the binary clause {a, b}: lower code << 32 | higher.
std::uint64_t binary_key(int a, int b) noexcept {
  const auto lo = static_cast<std::uint32_t>(std::min(a, b));
  const auto hi = static_cast<std::uint32_t>(std::max(a, b));
  return std::uint64_t{lo} << 32 | hi;
}

/// Turn per-row counts at rows[r] (rows[last] = 0) into inclusive prefix
/// sums: rows[r] is then the end of row r, and filling each row by
/// pre-decrement leaves rows[r] at its start.
void inclusive_prefix_sums(std::vector<int>& rows) {
  for (std::size_t r = 1; r < rows.size(); ++r) rows[r] += rows[r - 1];
}

}  // namespace

SymmetryVerifier::SymmetryVerifier(const Formula& formula)
    : num_lits_(2 * formula.num_vars()) {
  const auto code_of = [](Lit l) { return static_cast<std::size_t>(l.code()); };
  const std::size_t num_codes = static_cast<std::size_t>(num_lits_);

  // Binary clauses: partner rows by counting sort, then the key set.
  partner_begin_.assign(num_codes + 1, 0);
  std::size_t num_binary = 0;
  std::size_t num_lits = 0;  // of every other constraint
  for (std::span<const Lit> c : formula.clauses()) {
    if (c.size() == 2) {
      ++partner_begin_[code_of(c[0])];
      ++partner_begin_[code_of(c[1])];
      ++num_binary;
    } else {
      ++num_clauses_;
      num_lits += c.size();
    }
  }
  inclusive_prefix_sums(partner_begin_);
  partner_.resize(2 * num_binary);
  const std::size_t key_slots = std::bit_ceil(std::max<std::size_t>(
      2 * num_binary, 2));
  keys_.assign(key_slots, kNoKey);
  key_shift_ = 64 - std::countr_zero(key_slots);
  for (std::span<const Lit> c : formula.clauses()) {
    if (c.size() != 2) continue;
    const int a = c[0].code();
    const int b = c[1].code();
    partner_[static_cast<std::size_t>(--partner_begin_[code_of(c[0])])] = b;
    partner_[static_cast<std::size_t>(--partner_begin_[code_of(c[1])])] = a;
    const std::uint64_t key = binary_key(a, b);
    std::size_t slot = key_slot(key);
    while (keys_[slot] != kNoKey && keys_[slot] != key) {
      slot = (slot + 1) & (key_slots - 1);
    }
    keys_[slot] = key;
  }

  // Every other constraint, clauses first then PB rows.
  const int num_constraints = num_clauses_ + formula.num_pb();
  begin_.reserve(static_cast<std::size_t>(num_constraints) + 1);
  begin_.push_back(0);
  for (const PbConstraint& pb : formula.pb_constraints()) {
    num_lits += pb.terms().size();
  }
  lits_.reserve(num_lits);
  for (std::span<const Lit> c : formula.clauses()) {
    if (c.size() == 2) continue;
    for (const Lit l : c) lits_.push_back(l.code());
    begin_.push_back(lits_.size());
  }
  pb_base_ = lits_.size();
  for (const PbConstraint& pb : formula.pb_constraints()) {
    for (const PbTerm& t : pb.terms()) {
      lits_.push_back(t.lit.code());
      coeffs_.push_back(t.coeff);
    }
    begin_.push_back(lits_.size());
    bounds_.push_back(pb.bound());
  }

  Rng rng;
  lit_hash_.resize(num_codes);
  for (std::uint64_t& h : lit_hash_) h = rng.next();
  const Perm identity = identity_perm(num_lits_);
  hash_.resize(static_cast<std::size_t>(num_constraints));
  table_.assign(std::bit_ceil(2 * hash_.size() + 1), -1);
  table_mask_ = table_.size() - 1;
  for (int id = 0; id < num_constraints; ++id) {
    const std::uint64_t h = image_hash(id, identity);
    hash_[static_cast<std::size_t>(id)] = h;
    std::size_t slot = h & table_mask_;
    while (table_[slot] >= 0) slot = (slot + 1) & table_mask_;
    table_[slot] = id;
  }

  // Occurrence lists by counting sort over the literal codes.
  occ_begin_.assign(num_codes + 1, 0);
  for (const int code : lits_) ++occ_begin_[static_cast<std::size_t>(code)];
  inclusive_prefix_sums(occ_begin_);
  occ_.resize(lits_.size());
  for (int id = 0; id < num_constraints; ++id) {
    for (const int code : literals(id)) {
      const int at = --occ_begin_[static_cast<std::size_t>(code)];
      occ_[static_cast<std::size_t>(at)] = id;
    }
  }

  if (formula.objective()) {
    for (const PbTerm& t : formula.objective()->terms) {
      objective_.emplace_back(t.lit.code(), t.coeff);
    }
    std::sort(objective_.begin(), objective_.end());
  }
  visited_.assign(hash_.size(), 0);
  marked_.assign(num_codes, 0);
  term_at_.assign(num_codes, 0);
}

std::size_t SymmetryVerifier::key_slot(std::uint64_t key) const noexcept {
  // Fibonacci hashing: the top bits of the product mix every key bit.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> key_shift_);
}

bool SymmetryVerifier::key_present(std::uint64_t key) const noexcept {
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t slot = key_slot(key); keys_[slot] != kNoKey;
       slot = (slot + 1) & mask) {
    if (keys_[slot] == key) return true;
  }
  return false;
}

bool SymmetryVerifier::binary_images_present(std::span<const int> perm) const {
  // Image keys wait in a batch of 16 whose slots are prefetched before
  // any of them is probed.
  constexpr std::size_t kBatch = 16;
  std::array<std::uint64_t, kBatch> batch{};
  std::size_t pending = 0;
  const auto probe_batch = [&] {
    for (std::size_t i = 0; i < pending; ++i) {
      if (!key_present(batch[i])) return false;
    }
    pending = 0;
    return true;
  };
  for (const int code : moved_) {
    const int image = perm[static_cast<std::size_t>(code)];
    for (int k = partner_begin_[static_cast<std::size_t>(code)];
         k < partner_begin_[static_cast<std::size_t>(code) + 1]; ++k) {
      const int other = partner_[static_cast<std::size_t>(k)];
      const int other_image = perm[static_cast<std::size_t>(other)];
      // A clause whose two literals both move is taken from its lower code.
      if (other_image != other && other < code) continue;
      const std::uint64_t key = binary_key(image, other_image);
      __builtin_prefetch(&keys_[key_slot(key)]);
      batch[pending++] = key;
      if (pending == kBatch && !probe_batch()) return false;
    }
  }
  return probe_batch();
}

std::span<const int> SymmetryVerifier::literals(int id) const {
  const std::size_t first = begin_[static_cast<std::size_t>(id)];
  return {lits_.data() + first, begin_[static_cast<std::size_t>(id) + 1] - first};
}

const std::int64_t* SymmetryVerifier::coefficients(int id) const {
  return coeffs_.data() + (begin_[static_cast<std::size_t>(id)] - pb_base_);
}

std::int64_t SymmetryVerifier::bound(int id) const {
  return bounds_[static_cast<std::size_t>(id - num_clauses_)];
}

std::uint64_t SymmetryVerifier::image_hash(int id,
                                           std::span<const int> perm) const {
  // Order-independent: a sum of one random word per image literal, each
  // weighted by its coefficient in a PB row (whose bound seeds the sum).
  // Unsigned arithmetic, so the products and the sum wrap.
  const std::span<const int> lits = literals(id);
  auto word = [&](int code) {
    return lit_hash_[static_cast<std::size_t>(
        perm[static_cast<std::size_t>(code)])];
  };
  if (!is_pb(id)) {
    std::uint64_t h = 0;
    for (const int code : lits) h += word(code);
    return h;
  }
  const std::int64_t* coeffs = coefficients(id);
  std::uint64_t h = Rng(static_cast<std::uint64_t>(bound(id))).next();
  for (std::size_t k = 0; k < lits.size(); ++k) {
    h += static_cast<std::uint64_t>(coeffs[k]) * word(lits[k]);
  }
  return h;
}

bool SymmetryVerifier::image_present(int id, std::uint64_t h,
                                     std::span<const int> perm) {
  for (std::size_t slot = h & table_mask_; table_[slot] >= 0;
       slot = (slot + 1) & table_mask_) {
    const int candidate = table_[slot];
    if (hash_[static_cast<std::size_t>(candidate)] == h &&
        is_image(id, candidate, perm)) {
      return true;
    }
  }
  return false;
}

bool SymmetryVerifier::is_image(int id, int candidate,
                                std::span<const int> perm) {
  // Constraints hold distinct literals (clauses are deduplicated, PB rows
  // have one term per variable), so equal size plus every image literal
  // present in the candidate means equal literal sets.
  const std::span<const int> lits = literals(id);
  const std::span<const int> cand = literals(candidate);
  const bool pb = is_pb(id);
  if (pb != is_pb(candidate) || lits.size() != cand.size() ||
      (pb && bound(id) != bound(candidate))) {
    return false;
  }
  const std::uint32_t mark = next_epoch(marked_, mark_epoch_);
  for (std::size_t k = 0; k < cand.size(); ++k) {
    const auto code = static_cast<std::size_t>(cand[k]);
    marked_[code] = mark;
    term_at_[code] = static_cast<int>(k);
  }
  const std::int64_t* coeffs = pb ? coefficients(id) : nullptr;
  const std::int64_t* cand_coeffs = pb ? coefficients(candidate) : nullptr;
  for (std::size_t k = 0; k < lits.size(); ++k) {
    const auto image =
        static_cast<std::size_t>(perm[static_cast<std::size_t>(lits[k])]);
    if (marked_[image] != mark) return false;
    if (pb && cand_coeffs[term_at_[image]] != coeffs[k]) return false;
  }
  return true;
}

bool SymmetryVerifier::is_symmetry(std::span<const int> lit_perm) {
  if (static_cast<int>(lit_perm.size()) != num_lits_) return false;
  // A bijection commuting with negation: every image in range and taken
  // once, and perm(~l) == ~perm(l). The moved codes are listed on the way.
  const std::uint32_t taken = next_epoch(marked_, mark_epoch_);
  moved_.clear();
  for (int code = 0; code < num_lits_; ++code) {
    const int image = lit_perm[static_cast<std::size_t>(code)];
    if (image < 0 || image >= num_lits_ ||
        marked_[static_cast<std::size_t>(image)] == taken ||
        (image ^ 1) != lit_perm[static_cast<std::size_t>(code ^ 1)]) {
      return false;
    }
    marked_[static_cast<std::size_t>(image)] = taken;
    if (image != code) moved_.push_back(code);
  }

  // A constraint with no moved literal maps to itself. The image of one
  // that touches a moved literal l touches pi(l), which is moved too (by
  // injectivity, pi(pi(l)) == pi(l) would force pi(l) == l). So only the
  // touched constraints need checking, each once.
  if (!binary_images_present(lit_perm)) return false;

  // Per moved literal, the image hashes of its unvisited other
  // constraints are computed and their table slots prefetched before any
  // is probed.
  const std::uint32_t visit = next_epoch(visited_, visit_epoch_);
  for (const int code : moved_) {
    pending_.clear();
    for (int k = occ_begin_[static_cast<std::size_t>(code)];
         k < occ_begin_[static_cast<std::size_t>(code) + 1]; ++k) {
      const int id = occ_[static_cast<std::size_t>(k)];
      std::uint32_t& seen = visited_[static_cast<std::size_t>(id)];
      if (seen == visit) continue;
      seen = visit;
      const std::uint64_t h = image_hash(id, lit_perm);
      __builtin_prefetch(&table_[h & table_mask_]);
      pending_.emplace_back(id, h);
    }
    for (const auto& [id, h] : pending_) {
      if (!image_present(id, h, lit_perm)) return false;
    }
  }

  // Objective: the set of (literal, coeff) terms must be preserved.
  for (const auto& [code, coeff] : objective_) {
    const int image = lit_perm[static_cast<std::size_t>(code)];
    if (image != code &&
        !std::binary_search(objective_.begin(), objective_.end(),
                            std::pair{image, coeff})) {
      return false;
    }
  }
  return true;
}

bool is_formula_symmetry(const Formula& formula,
                         std::span<const int> lit_perm) {
  return SymmetryVerifier(formula).is_symmetry(lit_perm);
}

}  // namespace symcolor
