#include "cnf/simplify.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace symcolor {

RootClauseStatus reduce_clause_at_root(std::span<const Lit> lits,
                                       std::span<const LBool> values,
                                       Clause* reduced) {
  bool touched = false;
  for (const Lit l : lits) {
    if (lit_value(values[static_cast<std::size_t>(l.var())], l.negated()) !=
        LBool::Undef) {
      touched = true;
      break;
    }
  }
  if (!touched) return RootClauseStatus::Unchanged;
  reduced->clear();
  for (const Lit l : lits) {
    const LBool v =
        lit_value(values[static_cast<std::size_t>(l.var())], l.negated());
    if (v == LBool::True) return RootClauseStatus::Satisfied;
    if (v == LBool::Undef) reduced->push_back(l);
  }
  if (reduced->empty()) return RootClauseStatus::Empty;
  if (reduced->size() == 1) return RootClauseStatus::Unit;
  return RootClauseStatus::Shortened;
}

RootPbReduction reduce_pb_at_root(std::span<const PbTerm> terms,
                                  std::int64_t bound,
                                  std::span<const LBool> values) {
  RootPbReduction out;
  std::vector<PbTerm> open;
  open.reserve(terms.size());
  for (const PbTerm& t : terms) {
    const LBool v = lit_value(values[static_cast<std::size_t>(t.lit.var())],
                              t.lit.negated());
    if (v == LBool::True) {
      if (__builtin_sub_overflow(bound, t.coeff, &bound)) {
        throw std::overflow_error("pb root fold: bound underflow");
      }
    } else if (v == LBool::Undef) {
      open.push_back(t);
    }
    // False terms contribute nothing: drop.
  }
  PbConstraint folded = PbConstraint::at_least(std::move(open), bound);
  if (folded.is_tautology()) {
    out.status = RootPbStatus::Satisfied;
    return out;
  }
  if (folded.is_contradiction()) {
    out.status = RootPbStatus::Contradiction;
    return out;
  }
  if (folded.is_clause()) {
    out.status = RootPbStatus::Clause;
    out.constraint = std::move(folded);
    return out;
  }
  out.status = RootPbStatus::Open;
  // Every remaining literal is unassigned, so the row's slack is simply
  // coeff_sum - bound; any coefficient above it forces its literal.
  const std::int64_t slack = folded.coeff_sum() - folded.bound();
  for (const PbTerm& t : folded.terms()) {
    if (t.coeff <= slack) break;  // terms sorted by descending coefficient
    out.forced.push_back(t.lit);
  }
  out.constraint = std::move(folded);
  return out;
}

namespace {

class Simplifier {
 public:
  Simplifier(const Formula& formula, const SimplifyOptions& options)
      : formula_(formula), options_(options) {
    values_.assign(static_cast<std::size_t>(formula.num_vars()), LBool::Undef);
  }

  Formula run(SimplifyStats* stats) {
    clauses_.assign(formula_.clauses().begin(), formula_.clauses().end());
    pbs_.assign(formula_.pb_constraints().begin(),
                formula_.pb_constraints().end());
    if (formula_.trivially_unsat()) stats_.unsatisfiable = true;

    bool changed = true;
    while (changed && !stats_.unsatisfiable) {
      changed = false;
      if (options_.propagate_units) changed |= propagate_round();
      if (options_.pure_literals && !stats_.unsatisfiable) {
        changed |= pure_round();
      }
    }
    if (options_.subsumption && !stats_.unsatisfiable) subsume();

    Formula out;
    out.new_vars(formula_.num_vars());
    if (stats_.unsatisfiable) {
      out.add_clause({});
      if (stats != nullptr) *stats = stats_;
      return out;
    }
    // Fixed variables become units, keeping the variable space intact.
    for (Var v = 0; v < formula_.num_vars(); ++v) {
      if (values_[static_cast<std::size_t>(v)] != LBool::Undef) {
        out.add_unit(Lit(v, values_[static_cast<std::size_t>(v)] ==
                                LBool::False));
      }
    }
    for (const Clause& c : clauses_) {
      if (!c.empty()) out.add_clause(c);
    }
    for (const PbConstraint& pb : pbs_) out.add_pb(pb);
    if (formula_.objective()) out.set_objective(*formula_.objective());
    if (stats != nullptr) *stats = stats_;
    return out;
  }

 private:
  [[nodiscard]] LBool value(Lit l) const {
    return lit_value(values_[static_cast<std::size_t>(l.var())], l.negated());
  }

  void fix(Lit l, bool pure) {
    if (value(l) == LBool::True) return;
    if (value(l) == LBool::False) {
      stats_.unsatisfiable = true;
      return;
    }
    values_[static_cast<std::size_t>(l.var())] = lbool_of(!l.negated());
    if (pure) {
      ++stats_.pure_literals;
    } else {
      ++stats_.fixed_variables;
    }
  }

  /// One sweep of root-level propagation; true if anything changed. The
  /// per-constraint verdicts come from reduce_clause_at_root /
  /// reduce_pb_at_root; this routes them into the simplifier's own
  /// bookkeeping.
  bool propagate_round() {
    bool changed = false;
    // Clauses: drop satisfied, strip false literals, detect units.
    std::vector<Clause> kept;
    kept.reserve(clauses_.size());
    for (Clause& c : clauses_) {
      Clause reduced;
      switch (reduce_clause_at_root(c, values_, &reduced)) {
        case RootClauseStatus::Satisfied:
          ++stats_.removed_clauses;
          changed = true;
          continue;
        case RootClauseStatus::Empty:
          stats_.unsatisfiable = true;
          return true;
        case RootClauseStatus::Unit:
          ++stats_.shortened_clauses;
          fix(reduced[0], /*pure=*/false);
          changed = true;
          continue;
        case RootClauseStatus::Shortened:
          ++stats_.shortened_clauses;
          changed = true;
          kept.push_back(std::move(reduced));
          continue;
        case RootClauseStatus::Unchanged:
          // Unchanged covers the no-assigned-literal degenerate shapes
          // too: an original empty clause and an original unit.
          if (c.empty()) {
            stats_.unsatisfiable = true;
            return true;
          }
          if (c.size() == 1) {
            fix(c[0], /*pure=*/false);
            changed = true;
            continue;
          }
          kept.push_back(std::move(c));
          continue;
      }
    }
    clauses_ = std::move(kept);
    if (stats_.unsatisfiable) return true;

    // PB constraints: fold in assigned literals, detect forced terms.
    std::vector<PbConstraint> kept_pb;
    kept_pb.reserve(pbs_.size());
    for (const PbConstraint& pb : pbs_) {
      const bool touched =
          std::any_of(pb.terms().begin(), pb.terms().end(),
                      [&](const PbTerm& t) {
                        return value(t.lit) != LBool::Undef;
                      });
      RootPbReduction r = reduce_pb_at_root(pb.terms(), pb.bound(), values_);
      switch (r.status) {
        case RootPbStatus::Satisfied:
          ++stats_.removed_pb;
          changed |= touched;
          continue;
        case RootPbStatus::Contradiction:
          stats_.unsatisfiable = true;
          return true;
        case RootPbStatus::Clause: {
          Clause c;
          for (const PbTerm& t : r.constraint.terms()) c.push_back(t.lit);
          clauses_.push_back(std::move(c));
          ++stats_.removed_pb;
          changed = true;
          continue;
        }
        case RootPbStatus::Open:
          if (!r.forced.empty()) {
            for (const Lit l : r.forced) fix(l, /*pure=*/false);
            changed = true;  // re-reduced next round
          } else {
            changed |= touched;
          }
          kept_pb.push_back(std::move(r.constraint));
          continue;
      }
    }
    pbs_ = std::move(kept_pb);
    return changed;
  }

  /// Fix variables appearing with a single polarity (and not in the
  /// objective, whose variables must stay free for minimization).
  bool pure_round() {
    const auto n = static_cast<std::size_t>(formula_.num_vars());
    std::vector<char> pos(n, 0), neg(n, 0), shielded(n, 0);
    if (formula_.objective()) {
      for (const PbTerm& t : formula_.objective()->terms) {
        shielded[static_cast<std::size_t>(t.lit.var())] = 1;
      }
    }
    auto mark = [&](Lit l) {
      (l.negated() ? neg : pos)[static_cast<std::size_t>(l.var())] = 1;
    };
    for (const Clause& c : clauses_) {
      for (const Lit l : c) mark(l);
    }
    for (const PbConstraint& pb : pbs_) {
      for (const PbTerm& t : pb.terms()) mark(t.lit);
    }
    bool changed = false;
    for (std::size_t v = 0; v < n; ++v) {
      if (values_[v] != LBool::Undef || shielded[v]) continue;
      if (pos[v] && !neg[v]) {
        fix(Lit::positive(static_cast<Var>(v)), /*pure=*/true);
        changed = true;
      } else if (neg[v] && !pos[v]) {
        fix(Lit::negative(static_cast<Var>(v)), /*pure=*/true);
        changed = true;
      }
    }
    return changed;
  }

  /// Drop clauses subsumed by a (short) other clause. Occurrence-indexed:
  /// a subsuming clause is checked only against clauses sharing its
  /// least-frequent literal.
  void subsume() {
    for (Clause& c : clauses_) std::sort(c.begin(), c.end());
    std::map<int, std::vector<std::size_t>> occurrences;  // lit code -> ids
    for (std::size_t i = 0; i < clauses_.size(); ++i) {
      for (const Lit l : clauses_[i]) {
        occurrences[l.code()].push_back(i);
      }
    }
    std::vector<char> dead(clauses_.size(), 0);
    for (std::size_t i = 0; i < clauses_.size(); ++i) {
      const Clause& small = clauses_[i];
      if (dead[i] ||
          static_cast<int>(small.size()) > options_.max_subsumption_width) {
        continue;
      }
      // Least-frequent literal of the subsuming clause.
      const Lit* anchor = nullptr;
      std::size_t best = SIZE_MAX;
      for (const Lit& l : small) {
        const std::size_t count = occurrences[l.code()].size();
        if (count < best) {
          best = count;
          anchor = &l;
        }
      }
      if (anchor == nullptr) continue;
      for (const std::size_t j : occurrences[anchor->code()]) {
        if (j == i || dead[j]) continue;
        const Clause& big = clauses_[j];
        if (big.size() < small.size()) continue;
        if (std::includes(big.begin(), big.end(), small.begin(), small.end())) {
          dead[j] = 1;
          ++stats_.removed_clauses;
        }
      }
    }
    std::vector<Clause> kept;
    kept.reserve(clauses_.size());
    for (std::size_t i = 0; i < clauses_.size(); ++i) {
      if (!dead[i]) kept.push_back(std::move(clauses_[i]));
    }
    clauses_ = std::move(kept);
  }

  const Formula& formula_;
  const SimplifyOptions& options_;
  std::vector<LBool> values_;
  std::vector<Clause> clauses_;
  std::vector<PbConstraint> pbs_;
  SimplifyStats stats_;
};

}  // namespace

Formula simplify(const Formula& formula, SimplifyStats* stats,
                 const SimplifyOptions& options) {
  Simplifier simplifier(formula, options);
  return simplifier.run(stats);
}

}  // namespace symcolor
