#pragma once
// A mixed CNF + pseudo-Boolean formula with an optional linear objective —
// the paper's "0-1 ILP" instance representation (Section 2.3): CNF clauses
// for disjunctive structure, PB constraints for counting structure, and a
// MIN objective over literals.
//
// Clause storage: every clause's literals sit end to end in one pool,
// and clause i is the slice [offsets_[i], offsets_[i + 1]) of it — one
// allocation for all clauses, none per clause (MiniSat's region idea,
// applied before the engine's own ClauseArena). clauses() reads the pool
// as spans; a span, or a view from clauses(), is valid until the next
// add_clause() on the same formula (which may move the pool) or the
// formula's end.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "cnf/literals.h"
#include "cnf/pb_constraint.h"

namespace symcolor {

/// An owned clause: the type of the engine API and of clause sharing
/// (SolverEngine::add_clause, SharedClause). A Formula stores none.
using Clause = std::vector<Lit>;

/// Random-access view of a formula's clauses; each element is a
/// std::span<const Lit> into the formula's literal pool.
class ClauseView {
 public:
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = std::span<const Lit>;
    using reference = std::span<const Lit>;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const Lit* pool, const std::uint32_t* offset) noexcept
        : pool_(pool), offset_(offset) {}

    reference operator*() const noexcept {
      return {pool_ + offset_[0], pool_ + offset_[1]};
    }
    reference operator[](difference_type i) const noexcept {
      return *(*this + i);
    }
    iterator& operator++() noexcept { ++offset_; return *this; }
    iterator operator++(int) noexcept { return {pool_, offset_++}; }
    iterator& operator--() noexcept { --offset_; return *this; }
    iterator operator--(int) noexcept { return {pool_, offset_--}; }
    iterator& operator+=(difference_type n) noexcept {
      offset_ += n;
      return *this;
    }
    iterator& operator-=(difference_type n) noexcept {
      offset_ -= n;
      return *this;
    }
    friend iterator operator+(iterator it, difference_type n) noexcept {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) noexcept {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) noexcept {
      return it -= n;
    }
    friend difference_type operator-(iterator a, iterator b) noexcept {
      return a.offset_ - b.offset_;
    }
    friend bool operator==(iterator a, iterator b) noexcept {
      return a.offset_ == b.offset_;
    }
    friend std::strong_ordering operator<=>(iterator a, iterator b) noexcept {
      return a.offset_ <=> b.offset_;
    }

   private:
    const Lit* pool_ = nullptr;
    const std::uint32_t* offset_ = nullptr;  // this clause's start
  };

  ClauseView(const Lit* pool, const std::uint32_t* offsets,
             std::size_t size) noexcept
      : pool_(pool), offsets_(offsets), size_(size) {}

  [[nodiscard]] iterator begin() const noexcept { return {pool_, offsets_}; }
  [[nodiscard]] iterator end() const noexcept {
    return {pool_, offsets_ + size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::span<const Lit> operator[](std::size_t i) const noexcept {
    return begin()[static_cast<std::ptrdiff_t>(i)];
  }

 private:
  const Lit* pool_;
  const std::uint32_t* offsets_;
  std::size_t size_;
};

/// Linear minimization objective: MIN sum coeff_i * lit_i.
struct Objective {
  std::vector<PbTerm> terms;

  /// Objective value under a complete assignment.
  [[nodiscard]] std::int64_t value(std::span<const LBool> values) const;
};

class Formula {
 public:
  Formula() = default;

  /// Allocate a fresh variable.
  Var new_var() { return num_vars_++; }
  /// Allocate `count` fresh variables; returns the first.
  Var new_vars(int count);

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }

  /// Append a clause, stored sorted. Tautological clauses (l and ~l) are
  /// dropped; duplicate literals are merged. Empty clauses are recorded
  /// and make the formula trivially unsat. `lits` may point into this
  /// formula's own pool.
  void add_clause(std::span<const Lit> lits);
  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  void add_unit(Lit l) { add_clause({l}); }
  /// a -> b, i.e. (~a | b).
  void add_implication(Lit a, Lit b) { add_clause({~a, b}); }

  /// Append a PB constraint (already-normalized tautologies are dropped).
  void add_pb(PbConstraint constraint);
  /// sum(lits) >= bound with unit coefficients.
  void add_at_least(const std::vector<Lit>& lits, std::int64_t bound);
  /// sum(lits) <= bound with unit coefficients.
  void add_at_most(const std::vector<Lit>& lits, std::int64_t bound);
  /// sum(lits) == bound (one >= plus one <=).
  void add_exactly(const std::vector<Lit>& lits, std::int64_t bound);

  void set_objective(Objective objective) { objective_ = std::move(objective); }
  [[nodiscard]] const std::optional<Objective>& objective() const noexcept {
    return objective_;
  }

  [[nodiscard]] ClauseView clauses() const noexcept {
    return {lits_.data(), offsets_.data(),
            static_cast<std::size_t>(num_clauses())};
  }
  [[nodiscard]] std::span<const PbConstraint> pb_constraints() const noexcept {
    return pb_constraints_;
  }
  [[nodiscard]] int num_clauses() const noexcept {
    return offsets_.empty() ? 0 : static_cast<int>(offsets_.size()) - 1;
  }
  /// Literals over all clauses: the size of the clause pool.
  [[nodiscard]] std::size_t num_clause_lits() const noexcept {
    return lits_.size();
  }
  [[nodiscard]] int num_pb() const noexcept {
    return static_cast<int>(pb_constraints_.size());
  }
  /// True when an empty clause or contradictory PB constraint was added.
  [[nodiscard]] bool trivially_unsat() const noexcept { return trivially_unsat_; }

  /// Check a complete assignment against every clause and PB constraint.
  [[nodiscard]] bool satisfied_by(std::span<const LBool> values) const;

 private:
  int num_vars_ = 0;
  std::vector<Lit> lits_;  ///< every clause's literals, end to end
  /// Clause i is lits_[offsets_[i], offsets_[i + 1]). Empty until the
  /// first clause, so a default-constructed or moved-from formula holds
  /// no clause without allocating.
  std::vector<std::uint32_t> offsets_;
  std::vector<PbConstraint> pb_constraints_;
  std::optional<Objective> objective_;
  bool trivially_unsat_ = false;
};

}  // namespace symcolor
