#include "sat/prop_engine.h"

#include <algorithm>
#include <utility>

namespace symcolor {

PropEngine::PropEngine(const Formula& formula) {
  const auto n = static_cast<std::size_t>(formula.num_vars());
  lit_values_.assign(2 * n, LBool::Undef);
  in_pb_.assign(2 * n, 0);
  vardata_.assign(n, {});
}

void PropEngine::init_pools() {
  const auto n = vardata_.size();
  watches_.init(2 * n);
  bin_watches_.init(2 * n);
  pb_occs_.init(2 * n);
  // The trail holds at most one entry per variable: reserving up front
  // removes the capacity branch from enqueue() for the whole search.
  trail_.reserve(n);
  trail_lim_.reserve(n);
}

void PropEngine::load(const Formula& formula) {
  ok_ = !formula.trivially_unsat();
  // Lay out the watch rows once from a count of the rows each clause of
  // two or more literals watches (its first two literals), so attaching
  // the clauses below relocates no row and leaves no garbage. A clause
  // that a level-0 unit shortens may watch other rows; push() relocates
  // a row it overfills.
  {
    std::vector<std::uint32_t> bin_counts(bin_watches_.num_rows(), 0);
    std::vector<std::uint32_t> long_counts(watches_.num_rows(), 0);
    for (std::span<const Lit> clause : formula.clauses()) {
      if (clause.size() < 2) continue;
      std::vector<std::uint32_t>& counts =
          clause.size() == 2 ? bin_counts : long_counts;
      ++counts[static_cast<std::size_t>(clause[0].code())];
      ++counts[static_cast<std::size_t>(clause[1].code())];
    }
    bin_watches_.lay_out(bin_counts);
    watches_.lay_out(long_counts);
  }
  // A formula clause is already sorted, duplicate-free and not a
  // tautology, so load_buffered_clause() would attach it unchanged (same
  // order, same watches) unless a level-0 unit assigns one of its
  // literals: attach it straight from the formula's pool then.
  for (std::span<const Lit> clause : formula.clauses()) {
    if (!ok_) break;
    if (clause.size() >= 2 &&
        std::all_of(clause.begin(), clause.end(), [this](Lit l) {
          return value(l) == LBool::Undef;
        })) {
      attach_clause(clause, /*learnt=*/false);
    } else if (!load_clause(clause)) {
      break;
    }
  }
  for (const PbConstraint& c : formula.pb_constraints()) {
    if (!load_pb(c)) break;
  }
}

bool PropEngine::load_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  load_lits_.assign(lits.begin(), lits.end());
  return load_buffered_clause();
}

bool PropEngine::load_buffered_clause() {
  // Sort, dedup, then simplify against the level-0 assignment by
  // compacting the undecided literals to the front of the same buffer
  // (write index <= read index, and the tautology test reads ahead only).
  std::vector<Lit>& lits = load_lits_;
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i + 1 < lits.size() && lits[i + 1].var() == l.var()) return true;
    if (value(l) == LBool::True) return true;  // already satisfied
    if (value(l) == LBool::Undef) lits[kept++] = l;
  }
  lits.resize(kept);
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    enqueue(lits[0], {});
    if (propagate().valid()) ok_ = false;
    return ok_;
  }
  attach_clause(lits, /*learnt=*/false);
  return true;
}

bool PropEngine::load_pb(const PbConstraint& constraint) {
  if (!ok_) return false;
  if (constraint.is_tautology()) return true;
  if (constraint.is_contradiction()) {
    ok_ = false;
    return false;
  }
  if (constraint.is_clause()) {
    load_lits_.clear();
    for (const PbTerm& t : constraint.terms()) load_lits_.push_back(t.lit);
    return load_buffered_clause();
  }
  // The new constraint may already be conflicting or unit under the
  // level-0 assignment; propagate() alone would not notice (no new trail
  // entries), so check it directly.
  if (!propagate_row(attach_pb_row(constraint.terms(), constraint.bound())) ||
      propagate().valid()) {
    ok_ = false;
  }
  return ok_;
}

ClauseRef PropEngine::attach_clause(std::span<const Lit> lits, bool learnt) {
  assert(lits.size() >= 2);
  const auto row0 = static_cast<std::size_t>(lits[0].code());
  const auto row1 = static_cast<std::size_t>(lits[1].code());
  if (lits.size() == 2) {
    bin_watches_.push(row0, BinWatch::of(lits[1], /*watched_first=*/true));
    bin_watches_.push(row1, BinWatch::of(lits[0], /*watched_first=*/false));
    ++binary_clauses_;
    if (learnt) ++learnt_binaries_;
    return kInvalidClauseRef;
  }
  const ClauseRef cref = arena_.alloc(lits, learnt);
  watches_.push(row0, {cref, lits[1]});
  watches_.push(row1, {cref, lits[0]});
  return cref;
}

std::uint32_t PropEngine::attach_pb_row(std::span<const PbTerm> terms,
                                        std::int64_t bound) {
  PbData data;
  data.terms_begin = static_cast<std::uint32_t>(pb_terms_.size());
  data.terms_len = static_cast<std::uint32_t>(terms.size());
  data.bound = bound;
  // Terms arrive sorted by descending coefficient (PbConstraint invariant;
  // the cutting-planes emit path upholds it for learned rows).
  data.max_coeff = terms.empty() ? 0 : terms[0].coeff;
  const auto index = static_cast<std::uint32_t>(pbs_.size());
  std::int64_t slack = -bound;
  for (const PbTerm& t : terms) {
    pb_terms_.push_back(t);
    pb_occs_.push(static_cast<std::size_t>(t.lit.code()), {index, t.coeff});
    in_pb_[static_cast<std::size_t>(t.lit.code())] = 1;
    // Literals already false contribute nothing to slack.
    if (value(t.lit) != LBool::False) slack += t.coeff;
  }
  pb_occs_dirty_ = true;
  data.slack = slack;
  pbs_.push_back(data);
  return index;
}

bool PropEngine::propagate_row(std::uint32_t index) {
  const std::int64_t slack = pbs_[index].slack;
  if (slack < 0) return false;
  for (const PbTerm& t : pb_terms(pbs_[index])) {
    if (t.coeff <= slack) break;  // terms sorted by descending coeff
    if (value(t.lit) == LBool::Undef) {
      enqueue(t.lit, {ReasonKind::PbRef, index});
    }
  }
  return true;
}

PropEngine::Conflict PropEngine::propagate_pb_for(Lit falsified) {
  // Slack was already decremented in enqueue(); here we detect conflicts
  // and propagate forced literals for every constraint containing the
  // falsified literal.
  for (const PbOcc& occ :
       pb_occs_.row(static_cast<std::size_t>(falsified.code()))) {
    PbData& pb = pbs_[occ.pb_index];
    if (pb.slack < 0) return {ReasonKind::PbRef, occ.pb_index};
    if (pb.slack >= pb.max_coeff) {
      // No coefficient exceeds the slack: the constraint can neither
      // conflict nor force anything, so skip the term scan entirely.
      ++stats_.pb_short_circuits;
      continue;
    }
    for (const PbTerm& t : pb_terms(pb)) {
      if (t.coeff <= pb.slack) break;  // terms sorted by descending coeff
      if (value(t.lit) == LBool::Undef) {
        enqueue(t.lit, {ReasonKind::PbRef, occ.pb_index});
      }
    }
  }
  return {};
}

PropEngine::Conflict PropEngine::propagate() {
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    ++stats_.propagations;
    const Lit falsified = ~p;
    const auto fcode = static_cast<std::uint32_t>(falsified.code());
    // Overlap the NEXT trail literal's watcher slabs with this literal's
    // scan: the row headers are hot, but the slab lines they point at are
    // scattered across the pool and their load latency otherwise lands on
    // the critical path of the next iteration. (A push into another row
    // during the long scan below can reallocate the slab, invalidating
    // the hint — prefetch is advisory, so that is merely a wasted line.)
    if (qhead_ < static_cast<int>(trail_.size())) {
      const auto nrow = static_cast<std::size_t>(
          (~trail_[static_cast<std::size_t>(qhead_)]).code());
      __builtin_prefetch(bin_watches_.data(nrow));
      __builtin_prefetch(watches_.data(nrow));
    }

    // --- binary implications first ---
    // The binary row is read-only during the scan (binary watches never
    // move) and needs no tag test or keep-compaction: each entry is the
    // other literal, and the implication's reason is the falsified one.
    const auto frow = static_cast<std::size_t>(falsified.code());
    {
      const BinWatch* const bw_data = bin_watches_.data(frow);
      const std::uint32_t bw_size = bin_watches_.size(frow);
      for (std::uint32_t i = 0; i < bw_size; ++i) {
        const BinWatch w = bw_data[i];
        const Lit other = w.other();
        const LBool bv = value(other);
        if (bv == LBool::True) continue;
        if (bv == LBool::False) {
          qhead_ = static_cast<int>(trail_.size());
          const auto ocode = static_cast<std::uint32_t>(other.code());
          return w.watched_first()
                     ? Conflict{ReasonKind::Binary, fcode, ocode}
                     : Conflict{ReasonKind::Binary, ocode, fcode};
        }
        enqueue(other, {ReasonKind::Binary, fcode});
      }
    }

    // --- long-clause propagation via two watched literals ---
    // This literal's row never grows during the scan (new watches go to
    // other literals' rows — the moved-to literal is non-false, the
    // falsified one is false), so its offset/size are stable. The slab
    // base pointer is NOT: a push into another row can reallocate the
    // pool, so `ws_data` is re-read after every watch move (the only
    // path that pushes).
    Watcher* ws_data = watches_.data(frow);
    const std::uint32_t ws_size = watches_.size(frow);
    std::uint32_t keep = 0;
    for (std::uint32_t read = 0; read < ws_size; ++read) {
      const Watcher w = ws_data[read];
      if (value(w.blocker) == LBool::True) {
        ws_data[keep++] = w;
        continue;
      }
      std::uint32_t* lits = arena_.lit_codes(w.cref);
      const int size = arena_.size(w.cref);
      // Ensure the falsified literal sits at position 1.
      if (lits[0] == fcode) std::swap(lits[0], lits[1]);
      assert(lits[1] == fcode);
      const Lit first = Lit::from_code(static_cast<int>(lits[0]));
      if (value(first) == LBool::True) {
        ws_data[keep++] = {w.cref, first};
        continue;
      }
      bool moved = false;
      for (int k = 2; k < size; ++k) {
        const Lit lk = Lit::from_code(static_cast<int>(lits[k]));
        if (value(lk) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_.push(static_cast<std::size_t>(lits[1]), {w.cref, first});
          ws_data = watches_.data(frow);  // push may have moved the slab
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws_data[keep++] = w;
      if (value(first) == LBool::False) {
        // Conflict: restore the remaining watchers and report.
        for (std::uint32_t rest = read + 1; rest < ws_size; ++rest) {
          ws_data[keep++] = ws_data[rest];
        }
        watches_.truncate(frow, keep);
        qhead_ = static_cast<int>(trail_.size());
        return {ReasonKind::ClauseRef, w.cref};
      }
      enqueue(first, {ReasonKind::ClauseRef, w.cref});
    }
    watches_.truncate(frow, keep);

    // --- PB propagation ---
    if (in_pb_[frow]) {
      const Conflict conflict = propagate_pb_for(falsified);
      if (conflict.valid()) {
        qhead_ = static_cast<int>(trail_.size());
        return conflict;
      }
    }
  }
  return {};
}

void PropEngine::compact_pbs() {
  constexpr std::uint32_t kDead = 0xFFFFFFFFu;
  std::vector<std::uint32_t> old2new(pbs_.size(), kDead);
  std::vector<PbData> fresh;
  fresh.reserve(pbs_.size());
  std::vector<PbTerm> fresh_terms;
  fresh_terms.reserve(pb_terms_.size());
  for (std::uint32_t idx = 0; idx < pbs_.size(); ++idx) {
    const PbData& pb = pbs_[idx];
    if (pb.flags & kPbDeleted) continue;
    old2new[idx] = static_cast<std::uint32_t>(fresh.size());
    PbData moved = pb;
    moved.terms_begin = static_cast<std::uint32_t>(fresh_terms.size());
    const PbTerm* src = pb_terms_.data() + pb.terms_begin;
    fresh_terms.insert(fresh_terms.end(), src, src + pb.terms_len);
    fresh.push_back(moved);
  }
  pbs_ = std::move(fresh);
  pb_terms_ = std::move(fresh_terms);
  pb_occs_.rebuild([&](std::size_t, PbOcc& occ) {
    if (old2new[occ.pb_index] == kDead) return false;
    occ.pb_index = old2new[occ.pb_index];
    return true;
  });
  for (const Lit l : trail_) {
    Reason& r = vardata_[static_cast<std::size_t>(l.var())].reason;
    if (r.kind == ReasonKind::PbRef) r.index = old2new[r.index];
  }
}

bool PropEngine::clause_locked(ClauseRef cref) const {
  const Lit first = arena_.lit(cref, 0);
  const Reason r = reason(first.var());
  return value(first) == LBool::True && r.kind == ReasonKind::ClauseRef &&
         r.index == cref;
}

void PropEngine::compact_pools() {
  if (pb_occs_dirty_) {
    pb_occs_.compact();
    pb_occs_dirty_ = false;
  }
  if (watches_.sparse()) watches_.compact();
  if (bin_watches_.sparse()) bin_watches_.compact();
}

PropEngine::ProbeResult PropEngine::probe(std::span<const Lit> assumptions) {
  if (!ok_) return {.refuted = true};
  assert(decision_level() == 0);
  if (propagate().valid()) {
    ok_ = false;  // level-0 conflict: unsat outright
    return {.refuted = true};
  }
  const int root = static_cast<int>(trail_.size());
  ProbeResult result{.free_vars = num_vars() - root};
  for (const Lit a : assumptions) {
    if (!a.valid() || a.var() >= num_vars() || value(a) == LBool::False) {
      result.refuted = true;
      break;
    }
    if (value(a) == LBool::True) continue;
    new_decision_level();
    enqueue(a, {});
    if (propagate().valid()) {
      result.refuted = true;
      break;
    }
  }
  if (!result.refuted) result.forced = static_cast<int>(trail_.size()) - root;
  return result;
}

}  // namespace symcolor
