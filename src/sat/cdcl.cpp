#include "sat/cdcl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sat/luby.h"

namespace symcolor {

namespace {

// Overflow-checked int64 arithmetic for cutting-planes resolution: any
// overflow aborts the native analysis (the caller falls back to clause
// weakening), so a resolvent can never silently wrap.
inline bool add_ov(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_add_overflow(a, b, out);
}
inline bool mul_ov(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_mul_overflow(a, b, out);
}

// Learnt-constraint activity decay (clause and PB rows alike; MiniSat's
// value — every solver profile uses it).
constexpr double kClauseDecay = 0.999;
// Cutting-planes resolution steps per conflict before bailing to the
// Weaken path (defensive bound; real analyses stay far below).
constexpr int kPbMaxResolutions = 4096;
// Longest clause or PB row exchanged between parallel workers, enforced on
// both sides (glue caps alone admit arbitrarily long clauses on wide-glue
// instances).
constexpr std::size_t kShareMaxSize = 64;

}  // namespace

CdclSolver::CdclSolver(const Formula& formula, SolverConfig config)
    : config_(config), rng_(config.random_seed) {
  const auto n = static_cast<std::size_t>(formula.num_vars());
  assigns_.assign(n, LBool::Undef);
  lit_values_.assign(2 * n, LBool::Undef);
  vardata_.assign(n, {});
  order_.assign_scores(n, 0.0);
  polarity_.assign(n, config_.default_phase ? 1 : 0);
  seen_.assign(n, 0);
  cp_coef_.assign(n, 0);
  cp_lit_.assign(n, kUndefLit);
  cp_in_.assign(n, 0);
  lbd_level_stamp_.assign(n + 1, 0);  // one slot per possible decision level
  watches_.init(2 * n);
  bin_watches_.init(2 * n);
  pb_occs_.init(2 * n);

  // The trail holds at most one entry per variable: reserving up front
  // removes the capacity branch from enqueue() for the whole search.
  trail_.reserve(n);
  trail_lim_.reserve(n);

  std::vector<Var> vars(n);
  for (std::size_t v = 0; v < n; ++v) vars[v] = static_cast<Var>(v);
  order_.rebuild(vars);

  ok_ = !formula.trivially_unsat();
  for (const Clause& clause : formula.clauses()) {
    if (!ok_) break;
    add_clause(clause);
  }
  for (const PbConstraint& c : formula.pb_constraints()) {
    if (!ok_) break;
    add_pb(c);
  }
  // Aggressive first reduction (Glucose lineage): with LBD tiers
  // protecting core/mid clauses, a small local pool propagates much
  // faster than MiniSat's max(2000, m/3) would allow, and the 1.2 growth
  // per reduction still lets the DB scale with genuinely hard searches.
  max_learnts_ =
      config_.max_learnts_init > 0.0
          ? config_.max_learnts_init
          : std::max(800.0, static_cast<double>(arena_.live_clauses()) / 8.0);
}

void CdclSolver::reconfigure(const SolverConfig& config) {
  config_ = config;
  rng_ = Rng(config.random_seed);
  // std::vector copies do not preserve capacity, so a freshly cloned
  // solver lost the constructor's trail reservation; restore it here (the
  // portfolio reconfigures every clone before it searches).
  trail_.reserve(assigns_.size());
  trail_lim_.reserve(assigns_.size());
  if (config.max_learnts_init > 0.0) max_learnts_ = config.max_learnts_init;
}

bool CdclSolver::add_clause(Clause clause) {
  if (!ok_) return false;
  // Simplify against the level-0 assignment.
  Clause simplified;
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (std::size_t i = 0; i < clause.size(); ++i) {
    const Lit l = clause[i];
    if (i + 1 < clause.size() && clause[i + 1].var() == l.var()) return true;
    if (value(l) == LBool::True) return true;  // already satisfied
    if (value(l) == LBool::Undef) simplified.push_back(l);
  }
  if (simplified.empty()) {
    ok_ = false;
    return false;
  }
  if (simplified.size() == 1) {
    enqueue(simplified[0], {ReasonKind::None, kInvalidClauseRef});
    if (propagate().valid()) ok_ = false;
    return ok_;
  }
  attach_clause(simplified, /*learnt=*/false);
  return true;
}

bool CdclSolver::add_pb(PbConstraint constraint) {
  if (!ok_) return false;
  if (constraint.is_tautology()) return true;
  if (constraint.is_contradiction()) {
    ok_ = false;
    return false;
  }
  if (constraint.is_clause()) {
    Clause clause;
    for (const PbTerm& t : constraint.terms()) clause.push_back(t.lit);
    return add_clause(std::move(clause));
  }
  attach_pb(constraint);
  // The new constraint may already be conflicting or unit under the
  // level-0 assignment; propagate() alone would not notice (no new trail
  // entries), so check it directly.
  const auto pb_index = static_cast<std::uint32_t>(pbs_.size()) - 1;
  if (pbs_[pb_index].slack < 0) {
    ok_ = false;
    return false;
  }
  for (const PbTerm& t : pb_terms(pbs_[pb_index])) {
    if (t.coeff <= pbs_[pb_index].slack) break;
    if (value(t.lit) == LBool::Undef) {
      enqueue(t.lit, {ReasonKind::PbRef, pb_index});
    }
  }
  if (propagate().valid()) ok_ = false;
  return ok_;
}

ClauseRef CdclSolver::attach_clause(std::span<const Lit> lits, bool learnt) {
  assert(lits.size() >= 2);
  const ClauseRef cref = arena_.alloc(lits, learnt);
  FlatOccPool<Watcher>& pool = lits.size() == 2 ? bin_watches_ : watches_;
  pool.push(static_cast<std::size_t>(lits[0].code()), {cref, lits[1]});
  pool.push(static_cast<std::size_t>(lits[1].code()), {cref, lits[0]});
  return cref;
}

std::uint32_t CdclSolver::attach_pb_row(std::span<const PbTerm> terms,
                                        std::int64_t bound) {
  PbData data;
  data.terms_begin = static_cast<std::uint32_t>(pb_terms_.size());
  data.terms_len = static_cast<std::uint32_t>(terms.size());
  data.bound = bound;
  // Terms arrive sorted by descending coefficient (PbConstraint invariant;
  // analyze_pb's emit path upholds it for learned rows).
  data.max_coeff = terms.empty() ? 0 : terms[0].coeff;
  const auto index = static_cast<std::uint32_t>(pbs_.size());
  std::int64_t slack = -bound;
  for (const PbTerm& t : terms) {
    pb_terms_.push_back(t);
    pb_occs_.push(static_cast<std::size_t>(t.lit.code()), {index, t.coeff});
    // Literals already false contribute nothing to slack.
    if (value(t.lit) != LBool::False) slack += t.coeff;
  }
  pb_occs_dirty_ = true;
  data.slack = slack;
  pbs_.push_back(data);
  return index;
}

void CdclSolver::attach_pb(const PbConstraint& constraint) {
  attach_pb_row(constraint.terms(), constraint.bound());
}

void CdclSolver::enqueue(Lit l, Reason reason) {
  assert(value(l) == LBool::Undef);
  const auto v = static_cast<std::size_t>(l.var());
  const Lit falsified = ~l;
  assigns_[v] = lbool_of(!l.negated());
  lit_values_[static_cast<std::size_t>(l.code())] = LBool::True;
  lit_values_[static_cast<std::size_t>(falsified.code())] = LBool::False;
  vardata_[v].reason = reason;
  vardata_[v].level = decision_level();
  vardata_[v].trail_pos = static_cast<int>(trail_.size());
  trail_.push_back(l);
  if (pbs_.empty()) return;
  // PB slack bookkeeping: literal ~l just became false.
  for (const PbOcc& occ :
       pb_occs_.row(static_cast<std::size_t>(falsified.code()))) {
    pbs_[occ.pb_index].slack -= occ.coeff;
  }
}

CdclSolver::Conflict CdclSolver::propagate_pb_for(Lit falsified) {
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

CdclSolver::Conflict CdclSolver::propagate() {
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
    // other literal plus the clause ref for the implication reason.
    const auto frow = static_cast<std::size_t>(falsified.code());
    {
      const Watcher* const bw_data = bin_watches_.data(frow);
      const std::uint32_t bw_size = bin_watches_.size(frow);
      for (std::uint32_t i = 0; i < bw_size; ++i) {
        const Watcher w = bw_data[i];
        const LBool bv = value(w.blocker);
        if (bv == LBool::True) continue;
        if (bv == LBool::False) {
          qhead_ = static_cast<int>(trail_.size());
          return {ReasonKind::ClauseRef, w.cref};
        }
        enqueue(w.blocker, {ReasonKind::ClauseRef, w.cref});
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
    if (!pbs_.empty()) {
      const Conflict conflict = propagate_pb_for(falsified);
      if (conflict.valid()) {
        qhead_ = static_cast<int>(trail_.size());
        return conflict;
      }
    }
  }
  return {};
}

void CdclSolver::analyze(Conflict conflict, std::vector<Lit>* learnt,
                         int* backjump, int* lbd) {
  learnt->clear();
  learnt->push_back(kUndefLit);  // slot for the asserting (1UIP) literal

  // Marks stay set for the whole analysis (a current-level variable can
  // appear in several reasons and must only be counted once); they are
  // cleared in one sweep at the end. The seen_ marks also make it safe to
  // revisit the implied literal a clause reason may yield: its variable
  // is always already marked.
  std::vector<Var>& to_clear = analyze_toclear_;
  to_clear.clear();
  int counter = 0;
  const auto absorb = [&](Lit q) {
    const auto v = static_cast<std::size_t>(q.var());
    if (!seen_[v] && level(q.var()) > 0) {
      seen_[v] = 1;
      to_clear.push_back(q.var());
      bump_var(q.var());
      if (level(q.var()) >= decision_level()) {
        ++counter;
      } else {
        learnt->push_back(q);
      }
    }
    return true;
  };

  if (conflict.kind == ReasonKind::ClauseRef) {
    bump_clause(conflict.index);
    touch_learnt(conflict.index);
  }
  for_each_reason_lit({conflict.kind, conflict.index}, kUndefLit, absorb);

  Lit p = kUndefLit;
  int index = static_cast<int>(trail_.size()) - 1;
  for (;;) {
    // Walk back to the next marked trail literal.
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())]) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    --counter;
    if (counter == 0) break;
    const Reason r = vardata_[static_cast<std::size_t>(p.var())].reason;
    assert(r.kind != ReasonKind::None);
    if (r.kind == ReasonKind::ClauseRef) {
      bump_clause(r.index);
      touch_learnt(r.index);
    }
    for_each_reason_lit(r, p, absorb);
  }
  (*learnt)[0] = ~p;

  stats_.learned_literals += static_cast<std::int64_t>(learnt->size());
  if (config_.minimize_learned) minimize_learnt(learnt);

  // One scan computes both the backjump level (second-highest level in
  // the clause) and the LBD: every non-asserting literal's level is
  // loaded here anyway, so counting distinct levels is free. The
  // asserting literal sits alone at the conflict level, which no other
  // literal shares, hence the count starts at 1.
  if (learnt->size() == 1) {
    *backjump = 0;
    *lbd = 1;
  } else {
    ++lbd_stamp_;
    int glue = 1;
    std::size_t max_i = 1;
    int max_level = level((*learnt)[1].var());
    for (std::size_t i = 1; i < learnt->size(); ++i) {
      const int lvl = level((*learnt)[i].var());
      if (lvl > max_level) {
        max_level = lvl;
        max_i = i;
      }
      auto& stamp = lbd_level_stamp_[static_cast<std::size_t>(lvl)];
      if (stamp != lbd_stamp_) {
        stamp = lbd_stamp_;
        ++glue;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *backjump = max_level;
    *lbd = glue;
  }

  for (const Var v : to_clear) seen_[static_cast<std::size_t>(v)] = 0;
}

// ---- cutting-planes PB conflict analysis ----
//
// The resolvent invariant maintained throughout: the accumulator is a
// valid consequence of the constraint database (modulo level-0 units) and
// is CONFLICTING under the full current assignment (slack < 0). Each step
// resolves it against the reason of the latest trail literal it contains,
// with the reason weakened just enough that the coefficient-scaled sum is
// guaranteed conflicting again (slack is subadditive under the scaled
// addition). The walk stops as soon as the resolvent is assertive below
// the current decision level — the PB generalization of 1UIP.

bool CdclSolver::cp_load(Conflict conflict) {
  for (const Var v : cp_vars_) {
    cp_coef_[static_cast<std::size_t>(v)] = 0;
    cp_in_[static_cast<std::size_t>(v)] = 0;
  }
  cp_vars_.clear();
  cp_degree_ = 0;
  const auto add = [&](std::int64_t a, Lit l) -> bool {
    const auto v = static_cast<std::size_t>(l.var());
    // Level-0 strengthening: a globally false literal drops outright (it
    // is unit-implied away, degree unchanged), a globally true one drops
    // with its weight paid off the degree. Exactly mirrors how add_clause
    // simplifies against the level-0 assignment.
    if (value(l.var()) != LBool::Undef && level(l.var()) == 0) {
      if (value(l) == LBool::False) return true;
      return !add_ov(cp_degree_, -a, &cp_degree_);
    }
    assert(!cp_in_[v]);
    cp_in_[v] = 1;
    cp_vars_.push_back(l.var());
    cp_coef_[v] = a;
    cp_lit_[v] = l;
    return true;
  };
  if (conflict.kind == ReasonKind::ClauseRef) {
    const std::uint32_t* codes = arena_.lit_codes(conflict.index);
    const int size = arena_.size(conflict.index);
    cp_degree_ = 1;
    for (int i = 0; i < size; ++i) {
      if (!add(1, Lit::from_code(static_cast<int>(codes[i])))) return false;
    }
  } else {
    const PbData& pb = pbs_[conflict.index];
    cp_degree_ = pb.bound;
    for (const PbTerm& t : pb_terms(pb)) {
      if (!add(t.coeff, t.lit)) return false;
    }
  }
  return true;
}

std::int64_t CdclSolver::cp_slack_full() const {
  __int128 s = -static_cast<__int128>(cp_degree_);
  for (const Var v : cp_vars_) {
    const std::int64_t a = cp_coef_[static_cast<std::size_t>(v)];
    if (a != 0 && value(cp_lit_[static_cast<std::size_t>(v)]) != LBool::False) {
      s += a;
    }
  }
  // Saturating clamp: callers only branch on the sign and compare against
  // single coefficients, and saturation errs toward extra weakening —
  // never toward an unsound resolvent.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  if (s > kMax) return kMax;
  if (s < kMin) return kMin;
  return static_cast<std::int64_t>(s);
}

bool CdclSolver::cp_assertive() const {
  // Assertive below the current level L: with every level-L (and dummy
  // assumption level) assignment undone, the resolvent either still
  // conflicts or forces some literal not assigned below L. Terms false
  // below L stay false; everything else — unassigned, true anywhere,
  // false at L — counts as non-false, and the not-assigned-below-L subset
  // are the propagation candidates.
  const int L = decision_level();
  __int128 slack = -static_cast<__int128>(cp_degree_);
  std::int64_t maxcand = 0;
  for (const Var v : cp_vars_) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t a = cp_coef_[vi];
    if (a == 0) continue;
    const bool assigned_below = value(v) != LBool::Undef && level(v) < L;
    if (assigned_below && value(cp_lit_[vi]) == LBool::False) continue;
    slack += a;
    if (!assigned_below) maxcand = std::max(maxcand, a);
  }
  return slack < 0 || static_cast<__int128>(maxcand) > slack;
}

bool CdclSolver::cp_saturate_and_divide() {
  if (cp_degree_ <= 0) return false;
  std::int64_t g = 0;
  for (const Var v : cp_vars_) {
    std::int64_t& a = cp_coef_[static_cast<std::size_t>(v)];
    if (a == 0) continue;
    if (a > cp_degree_) a = cp_degree_;  // saturation
    g = std::gcd(g, a);
  }
  if (g <= 1) return true;  // g == 0: empty resolvent — caller decides
  for (const Var v : cp_vars_) {
    std::int64_t& a = cp_coef_[static_cast<std::size_t>(v)];
    if (a != 0) a /= g;
  }
  // Chvátal-Gomory rounding: the bound divides rounding UP, which is the
  // sound direction (the integer LHS cannot land strictly between).
  cp_degree_ = cp_degree_ / g + (cp_degree_ % g != 0 ? 1 : 0);
  return true;
}

bool CdclSolver::cp_weaken_nonfalse() {
  for (const Var v : cp_vars_) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t a = cp_coef_[vi];
    if (a == 0 || value(cp_lit_[vi]) == LBool::False) continue;
    // Weakening a non-false term (drop it, pay its weight off the degree)
    // leaves the slack unchanged, so the resolvent stays conflicting.
    cp_coef_[vi] = 0;
    cp_degree_ -= a;
  }
  if (cp_degree_ <= 0) return false;
  return cp_saturate_and_divide();
}

bool CdclSolver::cp_reduce_reason(Reason reason, Lit l, int pos_l) {
  cp_reason_.clear();
  cp_cands_.clear();
  cp_reason_degree_ = 0;
  std::int64_t coef_l = 0;
  const auto load_term = [&](std::int64_t a, Lit t) -> bool {
    if (t == l) {
      coef_l = a;
      return true;
    }
    const Var v = t.var();
    if (value(v) != LBool::Undef && level(v) == 0) {
      if (value(t) == LBool::False) return true;  // strengthen away
      return !add_ov(cp_reason_degree_, -a, &cp_reason_degree_);
    }
    if (value(t) == LBool::False) {
      if (vardata_[static_cast<std::size_t>(v)].trail_pos < pos_l) {
        cp_reason_.push_back({a, t});  // falsified before l: keep
        return true;
      }
      // Falsified AFTER l was propagated: weaken unconditionally, or the
      // resolvent would gain a literal past the analysis walk's cursor
      // and the walk could miss it. (Weakening a false term raises the
      // reason's slack; the loop below re-establishes the guarantee.)
      return !add_ov(cp_reason_degree_, -a, &cp_reason_degree_);
    }
    cp_cands_.push_back({a, t});  // non-false: optional weakening fodder
    return true;
  };
  bool ok = true;
  if (reason.kind == ReasonKind::ClauseRef) {
    cp_reason_degree_ = 1;
    const std::uint32_t* codes = arena_.lit_codes(reason.index);
    const int size = arena_.size(reason.index);
    for (int i = 0; ok && i < size; ++i) {
      ok = load_term(1, Lit::from_code(static_cast<int>(codes[i])));
    }
  } else {
    assert(reason.kind == ReasonKind::PbRef);
    const PbData& pb = pbs_[reason.index];
    cp_reason_degree_ = pb.bound;
    for (const PbTerm& t : pb_terms(pb)) {
      if (!(ok = load_term(t.coeff, t.lit))) break;
    }
  }
  if (!ok || coef_l <= 0 || cp_reason_degree_ <= 0) return false;

  // Weaken candidates (weakest coefficients first — they cost the least
  // strength) until the planned resolvent is guaranteed conflicting:
  // slack is subadditive under the scaled addition, so it suffices that
  //   c1 * slack(resolvent) + c2 * slack(reason) < 0
  // with c1 = coef_l/g, c2 = p/g the cancellation multipliers. Because a
  // fully weakened reason (l plus only falsified-before-l literals,
  // saturated) has slack <= 0, the loop always terminates in a state that
  // satisfies the condition.
  std::sort(cp_cands_.begin(), cp_cands_.end(),
            [](const PbTerm& a, const PbTerm& b) { return a.coeff < b.coeff; });
  const __int128 slack_c = cp_slack_full();  // < 0: analyze_pb's invariant
  const std::int64_t p =
      cp_coef_[static_cast<std::size_t>(l.var())];  // resolvent's ~l weight
  std::size_t weakened = 0;
  for (;;) {
    // Saturate the reason at its current degree.
    if (coef_l > cp_reason_degree_) coef_l = cp_reason_degree_;
    for (PbTerm& t : cp_reason_) t.coeff = std::min(t.coeff, cp_reason_degree_);
    __int128 slack_r =
        static_cast<__int128>(coef_l) - static_cast<__int128>(cp_reason_degree_);
    for (std::size_t i = weakened; i < cp_cands_.size(); ++i) {
      cp_cands_[i].coeff = std::min(cp_cands_[i].coeff, cp_reason_degree_);
      slack_r += cp_cands_[i].coeff;  // non-false terms all count
    }
    const std::int64_t g = std::gcd(p, coef_l);
    const __int128 c1 = coef_l / g;
    const __int128 c2 = p / g;
    if (c1 * slack_c + c2 * slack_r < 0) break;
    if (weakened == cp_cands_.size()) return false;  // unreachable; defensive
    cp_reason_degree_ -= cp_cands_[weakened].coeff;
    ++weakened;
    if (cp_reason_degree_ <= 0) return false;  // degenerated to tautology
  }
  // Emit: l's own term first (analyze_pb reads the coefficient there),
  // then the kept falsified terms and the surviving candidates.
  cp_reason_.insert(cp_reason_.begin(), {coef_l, l});
  cp_reason_.insert(cp_reason_.end(), cp_cands_.begin() + weakened,
                    cp_cands_.end());
  return true;
}

int CdclSolver::cp_backjump_level() {
  // The lowest level b < L at which the resolvent still conflicts or
  // propagates. slack_b counts every term not falsified at levels <= b
  // (unassigned terms and terms assigned above b revert to non-false
  // after backtracking); propagation candidates at b are exactly the
  // terms not assigned at or below b.
  const int L = decision_level();
  std::vector<BjEnt>& ents = cp_bj_ents_;
  ents.clear();
  __int128 total = 0;
  std::int64_t unassigned_max = 0;
  for (const Var v : cp_vars_) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t a = cp_coef_[vi];
    if (a == 0) continue;
    total += a;
    if (value(v) == LBool::Undef) {
      unassigned_max = std::max(unassigned_max, a);
      continue;
    }
    ents.push_back({level(v), a, value(cp_lit_[vi]) == LBool::False});
  }
  std::sort(ents.begin(), ents.end(),
            [](const BjEnt& a, const BjEnt& b) { return a.lvl < b.lvl; });
  std::vector<std::int64_t>& suffix_max = cp_bj_suffix_;
  suffix_max.assign(ents.size() + 1, 0);
  for (std::size_t i = ents.size(); i-- > 0;) {
    suffix_max[i] = std::max(suffix_max[i + 1], ents[i].coeff);
  }
  __int128 false_below = 0;
  std::size_t i = 0;
  for (int b = 0; b < L; ++b) {
    while (i < ents.size() && ents[i].lvl <= b) {
      if (ents[i].falsified) false_below += ents[i].coeff;
      ++i;
    }
    const __int128 slack_b =
        total - false_below - static_cast<__int128>(cp_degree_);
    const std::int64_t cand = std::max(unassigned_max, suffix_max[i]);
    if (slack_b < 0 || static_cast<__int128>(cand) > slack_b) return b;
  }
  // cp_assertive() held, so b = L-1 must have fired; keep a sane answer.
  return L - 1;
}

CdclSolver::PbOutcome CdclSolver::analyze_pb(Conflict conflict,
                                             PbLearned* out) {
  if (!cp_load(conflict)) return PbOutcome::Fallback;
  if (cp_degree_ <= 0 || !cp_saturate_and_divide()) return PbOutcome::Fallback;
  if (conflict.kind == ReasonKind::PbRef) bump_pb(conflict.index);
  if (cp_slack_full() >= 0) return PbOutcome::Fallback;  // defensive

  int i = static_cast<int>(trail_.size()) - 1;
  int steps = 0;
  while (!cp_assertive()) {
    // Latest trail literal the resolvent depends on (its negation carries
    // a nonzero coefficient).
    while (i >= 0) {
      const auto vi =
          static_cast<std::size_t>(trail_[static_cast<std::size_t>(i)].var());
      if (cp_coef_[vi] != 0 &&
          cp_lit_[vi] == ~trail_[static_cast<std::size_t>(i)]) {
        break;
      }
      --i;
    }
    if (i < 0) return PbOutcome::Fallback;  // defensive: nothing to resolve
    const Lit l = trail_[static_cast<std::size_t>(i)];
    const auto lv = static_cast<std::size_t>(l.var());
    const Reason r = vardata_[lv].reason;
    if (r.kind == ReasonKind::None) {
      // A decision (or assumption pseudo-decision) has no reason to
      // resolve with. Weakening every non-false term out of the resolvent
      // preserves the conflict; if even that does not make it assertive,
      // hand the conflict to the clausal path.
      if (!cp_weaken_nonfalse()) return PbOutcome::Fallback;
      if (cp_assertive()) break;
      return PbOutcome::Fallback;
    }
    if (++steps > kPbMaxResolutions) return PbOutcome::Fallback;
    bump_var(l.var());
    if (r.kind == ReasonKind::ClauseRef) {
      bump_clause(r.index);
      touch_learnt(r.index);
    } else {
      bump_pb(r.index);
    }
    if (!cp_reduce_reason(r, l, i)) return PbOutcome::Fallback;

    // Resolve: cp := c1*cp + c2*reason', cancelling var(l). All stored
    // arithmetic is overflow-checked int64; gcd division and saturation
    // right after keep the coefficients from compounding.
    const std::int64_t p = cp_coef_[lv];
    const std::int64_t q = cp_reason_[0].coeff;  // l's own coefficient
    const std::int64_t g = std::gcd(p, q);
    const std::int64_t c1 = q / g;
    const std::int64_t c2 = p / g;
    if (c1 > 1) {
      for (const Var v : cp_vars_) {
        std::int64_t& a = cp_coef_[static_cast<std::size_t>(v)];
        if (a != 0 && mul_ov(a, c1, &a)) return PbOutcome::Fallback;
      }
      if (mul_ov(cp_degree_, c1, &cp_degree_)) return PbOutcome::Fallback;
    }
    std::int64_t scaled_degree = 0;
    if (mul_ov(cp_reason_degree_, c2, &scaled_degree) ||
        add_ov(cp_degree_, scaled_degree, &cp_degree_)) {
      return PbOutcome::Fallback;
    }
    for (const PbTerm& t : cp_reason_) {
      std::int64_t a2 = 0;
      if (mul_ov(t.coeff, c2, &a2)) return PbOutcome::Fallback;
      const auto vi = static_cast<std::size_t>(t.lit.var());
      if (cp_coef_[vi] == 0) {
        if (!cp_in_[vi]) {
          cp_in_[vi] = 1;
          cp_vars_.push_back(t.lit.var());
        }
        cp_coef_[vi] = a2;
        cp_lit_[vi] = t.lit;
      } else if (cp_lit_[vi] == t.lit) {
        if (add_ov(cp_coef_[vi], a2, &cp_coef_[vi])) return PbOutcome::Fallback;
      } else {
        // Opposite literals: a*x + b*~x = min(a,b) + |a-b|*(majority side),
        // so the degree pays min(a,b) and the difference stays.
        const std::int64_t m = std::min(cp_coef_[vi], a2);
        cp_degree_ -= m;
        if (cp_coef_[vi] == a2) {
          cp_coef_[vi] = 0;
        } else if (cp_coef_[vi] > a2) {
          cp_coef_[vi] -= a2;
        } else {
          cp_coef_[vi] = a2 - cp_coef_[vi];
          cp_lit_[vi] = t.lit;
        }
      }
    }
    assert(cp_coef_[lv] == 0);  // exact cancellation of the pivot
    if (cp_degree_ <= 0 || !cp_saturate_and_divide()) {
      return PbOutcome::Fallback;
    }
    assert(cp_slack_full() < 0);
    ++stats_.pb_resolutions;
    --i;
  }

  // Emit the assertive resolvent.
  bool empty = true;
  for (const Var v : cp_vars_) {
    if (cp_coef_[static_cast<std::size_t>(v)] != 0) {
      empty = false;
      break;
    }
  }
  if (empty) return PbOutcome::Unsat;  // 0 >= degree > 0: level-0 conflict

  // Glue equivalent: distinct decision levels among the falsified terms.
  ++lbd_stamp_;
  int glue = 0;
  for (const Var v : cp_vars_) {
    const auto vi = static_cast<std::size_t>(v);
    if (cp_coef_[vi] == 0 || value(cp_lit_[vi]) != LBool::False) continue;
    const int lvl = level(v);
    if (lvl <= 0) continue;
    auto& stamp = lbd_level_stamp_[static_cast<std::size_t>(lvl)];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++glue;
    }
  }
  out->glue = std::max(glue, 1);
  out->backjump = cp_backjump_level();
  if (cp_degree_ == 1) {
    // Saturation left every coefficient at 1: the resolvent IS a clause.
    out->is_clause = true;
    out->clause.clear();
    for (const Var v : cp_vars_) {
      const auto vi = static_cast<std::size_t>(v);
      if (cp_coef_[vi] != 0) out->clause.push_back(cp_lit_[vi]);
    }
  } else {
    out->is_clause = false;
    out->terms.clear();
    for (const Var v : cp_vars_) {
      const auto vi = static_cast<std::size_t>(v);
      if (cp_coef_[vi] != 0) out->terms.push_back({cp_coef_[vi], cp_lit_[vi]});
    }
    std::sort(out->terms.begin(), out->terms.end(),
              [](const PbTerm& a, const PbTerm& b) {
                if (a.coeff != b.coeff) return a.coeff > b.coeff;
                return a.lit.code() < b.lit.code();
              });
    out->degree = cp_degree_;
  }
  return PbOutcome::Learned;
}

std::uint32_t CdclSolver::attach_learned_pb(std::span<const PbTerm> terms,
                                            std::int64_t degree, int glue) {
  assert(!terms.empty());
  const std::uint32_t index = attach_pb_row(terms, degree);
  PbData& pb = pbs_[index];
  pb.activity = static_cast<float>(pb_inc_);
  pb.lbd = static_cast<std::uint8_t>(std::min(glue, 255));
  pb.flags = kPbLearnt | kPbUsed;
  ++learnt_count_;
  ++stats_.learned_pbs;
  return index;
}

void CdclSolver::reduce_learned_pbs() {
  if (stats_.learned_pbs == stats_.deleted_pbs) return;  // no learnt rows
  // Rows serving as trail reasons are locked (their slack history is part
  // of the implication graph the next analyses will walk).
  std::vector<char> locked(pbs_.size(), 0);
  for (const Lit l : trail_) {
    const Reason& r = vardata_[static_cast<std::size_t>(l.var())].reason;
    if (r.kind == ReasonKind::PbRef) locked[r.index] = 1;
  }
  // Same tier policy as the clause DB: core glue is immortal, mid glue
  // survives while used since the previous reduction, the rest is sorted
  // by activity and the colder half dropped.
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t idx = 0; idx < pbs_.size(); ++idx) {
    PbData& pb = pbs_[idx];
    if (!(pb.flags & kPbLearnt)) continue;
    if (pb.lbd <= config_.tier_core_lbd) continue;
    if (pb.lbd <= config_.tier_mid_lbd) {
      if ((pb.flags & kPbUsed) || locked[idx]) {
        pb.flags &= ~kPbUsed;
        continue;
      }
      ++stats_.tier_demotions;
    } else if (locked[idx]) {
      pb.flags &= ~kPbUsed;
      continue;
    }
    pb.flags &= ~kPbUsed;
    candidates.push_back(idx);
  }
  const std::size_t drop = candidates.size() / 2;
  if (drop == 0) return;
  std::sort(candidates.begin(), candidates.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return pbs_[a].activity < pbs_[b].activity;
            });
  for (std::size_t k = 0; k < drop; ++k) {
    pbs_[candidates[k]].flags |= kPbDeleted;
    ++stats_.deleted_pbs;
    --learnt_count_;
  }
  // Compact rows, the shared term pool and the occurrence lists, then
  // remap trail reasons — the PB analog of garbage_collect(). Cached
  // slacks move with their rows; incremental maintenance carries on.
  constexpr std::uint32_t kDead = 0xFFFFFFFFu;
  std::vector<std::uint32_t> old2new(pbs_.size(), kDead);
  std::vector<PbData> fresh;
  fresh.reserve(pbs_.size() - drop);
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

void CdclSolver::analyze_final(Lit failed) {
  // `failed` is a pending assumption whose complement the assumption
  // prefix taken so far already implies. Walk the implication graph from
  // ~failed back to pseudo-decisions: every reason-less trail literal
  // reached is one of the earlier assumptions this conflict rests on
  // (assumption-taking happens before any branch decision, so at this
  // point every open decision level is an assumption level).
  core_.clear();
  core_.push_back(failed);
  if (decision_level() == 0) return;  // implied by root units alone
  seen_[static_cast<std::size_t>(failed.var())] = 1;
  const int start = trail_lim_[0];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= start; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(p.var());
    if (!seen_[v]) continue;
    const Reason r = vardata_[v].reason;
    if (r.kind == ReasonKind::None) {
      // Pseudo-decision: `p` is itself one of the caller's assumptions.
      core_.push_back(p);
    } else {
      // Reason literals are falsified strictly before p, so each mark set
      // here sits at a lower trail position and is consumed (and cleared)
      // later in this same backward sweep; level-0 literals carry no
      // assumption dependency and are skipped.
      for_each_reason_lit(r, p, [&](Lit q) {
        if (level(q.var()) > 0) seen_[static_cast<std::size_t>(q.var())] = 1;
        return true;
      });
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(failed.var())] = 0;
}

void CdclSolver::minimize_learnt(std::vector<Lit>* learnt) {
  // Re-mark so redundancy checks can consult membership.
  for (const Lit l : *learnt) seen_[static_cast<std::size_t>(l.var())] = 1;
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt->size(); ++i) {
    const Lit l = (*learnt)[i];
    const Reason r = vardata_[static_cast<std::size_t>(l.var())].reason;
    // Redundant iff every reason literal is already in the clause or at
    // level 0; the visitor aborts at the first counterexample.
    const bool redundant =
        r.kind != ReasonKind::None && for_each_reason_lit(r, ~l, [&](Lit q) {
          return seen_[static_cast<std::size_t>(q.var())] != 0 ||
                 level(q.var()) == 0;
        });
    if (redundant) {
      ++stats_.minimized_literals;
    } else {
      (*learnt)[keep++] = l;
    }
  }
  // Clear the re-marks before resizing (cover dropped literals too).
  for (const Lit l : *learnt) seen_[static_cast<std::size_t>(l.var())] = 0;
  learnt->resize(keep);
}

void CdclSolver::backtrack(int target_level) {
  if (decision_level() <= target_level) return;
  const int bound = trail_lim_[static_cast<std::size_t>(target_level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(p.var());
    if (!pbs_.empty()) {
      // Restore PB slack for the literal that stops being false.
      const Lit falsified = ~p;
      for (const PbOcc& occ :
           pb_occs_.row(static_cast<std::size_t>(falsified.code()))) {
        pbs_[occ.pb_index].slack += occ.coeff;
      }
    }
    if (config_.phase_saving) polarity_[v] = p.negated() ? 0 : 1;
    assigns_[v] = LBool::Undef;
    lit_values_[static_cast<std::size_t>(p.code())] = LBool::Undef;
    lit_values_[static_cast<std::size_t>((~p).code())] = LBool::Undef;
    vardata_[v].reason = {ReasonKind::None, kInvalidClauseRef};
    order_.insert(p.var());
  }
  trail_.resize(static_cast<std::size_t>(bound));
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = bound;
}

Lit CdclSolver::pick_branch() {
  if (config_.random_branch_freq > 0.0 &&
      rng_.uniform() < config_.random_branch_freq) {
    // Uniform random unassigned variable (diversification).
    const int n = num_vars();
    for (int tries = 0; tries < 16; ++tries) {
      const Var v =
          static_cast<Var>(rng_.below(static_cast<std::uint64_t>(n)));
      if (value(v) == LBool::Undef) {
        return Lit(v, polarity_[static_cast<std::size_t>(v)] == 0);
      }
    }
  }
  while (!order_.empty()) {
    const Var v = order_.pop_max();
    if (value(v) == LBool::Undef) {
      const bool phase_true = config_.phase_saving
                                  ? polarity_[static_cast<std::size_t>(v)] != 0
                                  : config_.default_phase;
      return Lit(v, !phase_true);
    }
  }
  return kUndefLit;
}

void CdclSolver::bump_var(Var v) {
  std::vector<double>& activity = order_.scores();
  activity[static_cast<std::size_t>(v)] += var_inc_;
  if (activity[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_.update(v);
}

void CdclSolver::bump_clause(ClauseRef cref) {
  if (!arena_.learnt(cref)) return;
  const float bumped =
      arena_.activity(cref) + static_cast<float>(clause_inc_);
  arena_.set_activity(cref, bumped);
  if (bumped > 1e20f) {
    for (ClauseRef cr = 0; cr != arena_.end_ref(); cr = arena_.next(cr)) {
      if (arena_.learnt(cr)) {
        arena_.set_activity(cr, arena_.activity(cr) * 1e-20f);
      }
    }
    clause_inc_ *= 1e-20;
  }
}

void CdclSolver::decay_activities() {
  var_inc_ /= config_.var_decay;
  clause_inc_ /= kClauseDecay;
  pb_inc_ /= kClauseDecay;
}

void CdclSolver::bump_pb(std::uint32_t pb_index) {
  PbData& pb = pbs_[pb_index];
  if (!(pb.flags & kPbLearnt)) return;
  pb.flags |= kPbUsed;
  pb.activity += static_cast<float>(pb_inc_);
  if (pb.activity > 1e20f) {
    for (PbData& other : pbs_) {
      if (other.flags & kPbLearnt) other.activity *= 1e-20f;
    }
    pb_inc_ *= 1e-20;
  }
}

int CdclSolver::compute_clause_lbd(ClauseRef cref) {
  ++lbd_stamp_;
  int lbd = 0;
  const std::uint32_t* codes = arena_.lit_codes(cref);
  const int size = arena_.size(cref);
  for (int i = 0; i < size; ++i) {
    const int lvl = level(Lit::from_code(static_cast<int>(codes[i])).var());
    if (lvl <= 0) continue;
    auto& stamp = lbd_level_stamp_[static_cast<std::size_t>(lvl)];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void CdclSolver::touch_learnt(ClauseRef cref) {
  if (!arena_.learnt(cref)) return;
  // The used flag doubles as a recompute throttle: LBD is re-measured at
  // most once per clause per reduce cycle (first touch), which keeps the
  // O(|clause|) scan off the steady-state analysis path.
  if (arena_.used(cref)) return;
  arena_.set_used(cref);
  const int stored = arena_.lbd(cref);
  // Core clauses cannot improve in tier; skip the recomputation. All
  // literals of a conflict/reason clause are assigned here, so levels are
  // fresh (touch_learnt is only called from analyze()).
  if (stored <= config_.tier_core_lbd) return;
  const int fresh = compute_clause_lbd(cref);
  if (fresh < stored) {
    arena_.set_lbd(cref, fresh);
    ++stats_.tier_promotions;
  }
}

void CdclSolver::maybe_export(std::span<const Lit> learnt, int lbd) {
  if (hooks_.sharing == nullptr || lbd > config_.share_max_lbd ||
      learnt.size() > kShareMaxSize) {
    return;
  }
  // Only count clauses the (bounded) exchange actually accepted.
  if (hooks_.sharing->export_clause(hooks_.worker_id, learnt, lbd)) {
    ++stats_.exported_clauses;
  }
}

void CdclSolver::maybe_export_pb(std::span<const PbTerm> terms,
                                 std::int64_t degree, int glue) {
  // Same admission caps as clause exports: glue-tier currency, bounded
  // width. Weakening-mode workers never reach this (they learn clauses
  // only), so the PB lane carries traffic exactly when a cutting-planes
  // worker is in the race.
  if (hooks_.sharing == nullptr || glue > config_.share_max_lbd ||
      terms.size() > kShareMaxSize) {
    return;
  }
  if (hooks_.sharing->export_pb(hooks_.worker_id, terms, degree, glue)) {
    ++stats_.exported_pbs;
  }
}

bool CdclSolver::drain_imports() {
  assert(decision_level() == 0);
  if (config_.fault_injection.poison_import) {
    // Deterministic stand-in for a foreign constraint that kills the
    // importer (e.g. overflow during normalization); fires at the first
    // import boundary, which is the solve() entry drain.
    throw std::runtime_error("fault injection: poisoned import");
  }
  import_buf_.clear();
  hooks_.sharing->import_clauses(hooks_.worker_id, &hooks_.import_cursor,
                                 &import_buf_);
  for (SharedClause& sc : import_buf_) {
    // Importer-side admission control: the exporter filtered on ITS caps,
    // which (after reconfigure-based diversification) need not match ours.
    // Re-check glue and size against this solver's thresholds and count
    // what gets turned away.
    if (sc.lbd > config_.share_max_lbd ||
        sc.lits.size() > kShareMaxSize) {
      ++stats_.rejected_imports;
      continue;
    }
    ++stats_.imported_clauses;
    // Learnt clauses are consequences of the shared formula (conflict
    // analysis never resolves on assumption pseudo-decisions), so a
    // foreign clause is added exactly like a problem clause: simplified
    // against the level-0 assignment, unit-propagated if forcing — and a
    // clause that is empty or all-false under the level-0 assignment
    // derives level-0 unsatisfiability (add_clause clears ok_), which the
    // `false` return surfaces to solve() instead of silently attaching a
    // falsified record. Glue imports would be core-tier anyway, so
    // attaching them as permanent clauses loses nothing to reduce_db().
    if (!add_clause(std::move(sc.lits))) return false;
  }
  // Learned PB rows travel the same way. add_pb re-normalizes the row and
  // runs the full level-0 admission logic: clause/unit degeneration,
  // contradiction and conflicting-under-level-0 detection (ok_ cleared,
  // surfaced through the false return), initial propagation.
  pb_import_buf_.clear();
  hooks_.sharing->import_pbs(hooks_.worker_id, &hooks_.pb_import_cursor,
                             &pb_import_buf_);
  for (SharedPb& sp : pb_import_buf_) {
    if (sp.lbd > config_.share_max_lbd ||
        sp.terms.size() > kShareMaxSize) {
      ++stats_.rejected_imports;
      continue;
    }
    PbConstraint imported;
    try {
      imported = PbConstraint::at_least(std::move(sp.terms), sp.degree);
    } catch (const std::overflow_error&) {
      // The exporter's arithmetic was overflow-checked, but re-normalizing
      // against this importer still sums coefficients; refuse rather than
      // attach anything inexact.
      ++stats_.rejected_imports;
      continue;
    }
    ++stats_.imported_pbs;
    if (!add_pb(std::move(imported))) return false;
  }
  return true;
}

bool CdclSolver::clause_locked(ClauseRef cref) const {
  const Lit first = arena_.lit(cref, 0);
  const VarData& vd = vardata_[static_cast<std::size_t>(first.var())];
  return value(first) == LBool::True &&
         vd.reason.kind == ReasonKind::ClauseRef && vd.reason.index == cref;
}

void CdclSolver::reduce_db() {
  // LBD-tiered retention (Glucose lineage):
  //   core  — glue clauses (lbd <= tier_core_lbd) and binaries: immortal;
  //   mid   — lbd <= tier_mid_lbd, kept while used since the previous
  //           reduction, demoted to the local pool otherwise;
  //   local — everything else, sorted by activity, less active half dropped
  //           (locked clauses are retained regardless).
  std::vector<ClauseRef> candidates;
  std::int64_t core = 0;
  std::int64_t mid = 0;
  std::int64_t local_locked = 0;
  for (ClauseRef cr = 0; cr != arena_.end_ref(); cr = arena_.next(cr)) {
    if (!arena_.learnt(cr)) continue;
    const Tier tier = clause_tier(cr);
    if (tier == Tier::Core) {
      ++core;
      continue;
    }
    if (tier == Tier::Mid) {
      if (arena_.used(cr) || clause_locked(cr)) {
        arena_.clear_used(cr);  // must earn its keep again by next cycle
        ++mid;
        continue;
      }
      ++stats_.tier_demotions;
    } else if (clause_locked(cr)) {
      // Locked local clauses survive but still reset their touch throttle,
      // or their LBD would never be recomputed again.
      arena_.clear_used(cr);
      ++local_locked;
      continue;
    }
    arena_.clear_used(cr);
    candidates.push_back(cr);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](ClauseRef a, ClauseRef b) {
              return arena_.activity(a) < arena_.activity(b);
            });
  const std::size_t drop = candidates.size() / 2;
  stats_.tier_core = core;
  stats_.tier_mid = mid;
  stats_.tier_local = local_locked +
                      static_cast<std::int64_t>(candidates.size() - drop);
  if (drop > 0) {  // nothing to compact otherwise; skip the arena copy
    for (std::size_t i = 0; i < drop; ++i) {
      arena_.set_deleted(candidates[i]);
      --learnt_count_;
      ++stats_.deleted_clauses;
    }
    garbage_collect();
  }
  // Learned PB constraints go through the same tier policy against their
  // own storage (rows + term pool + occurrence lists).
  reduce_learned_pbs();
}

void CdclSolver::garbage_collect() {
  // Compact live clauses into a fresh arena, then remap every stored
  // ClauseRef (watch lists and trail reasons) through the forwarding
  // pointers the relocation left behind. Deleted clauses are simply not
  // copied, so no tombstones survive into the next propagation.
  //
  // Tier-partitioned layout: survivors are relocated in three passes —
  // problem clauses + core-tier learnts first, then mid, then local — so
  // each retention tier lands in one contiguous arena segment. The hot
  // tier (problem + glue clauses, which every conflict-heavy propagation
  // touches) packs into the lowest addresses and stays cache-resident
  // while the churny local tier is swept in and out behind it. Multi-pass
  // sweeping needs no arena support beyond what single-pass used:
  // relocate() is idempotent per record (relocated bit + forwarding ref)
  // and leaves the old header's size/learnt/LBD bits intact, so later
  // passes still classify records and step next() over ones already moved.
  ClauseArena to;
  to.reserve(arena_.words());
  const auto sweep = [&](auto&& want) {
    for (ClauseRef cr = 0; cr != arena_.end_ref(); cr = arena_.next(cr)) {
      if (arena_.deleted(cr) || arena_.relocated(cr)) continue;
      if (want(cr)) arena_.relocate(cr, &to);
    }
  };
  sweep([&](ClauseRef cr) {
    return !arena_.learnt(cr) || clause_tier(cr) == Tier::Core;
  });
  sweep([&](ClauseRef cr) { return clause_tier(cr) == Tier::Mid; });
  sweep([](ClauseRef) { return true; });  // local tier — the remainder
  // Remap surviving watchers through the forwarding refs while rebuilding
  // each pool: one pass both drops dead entries and restores the
  // garbage-free CSR layout (rows in literal order, zero slack).
  const auto remap = [&](std::size_t, Watcher& w) {
    if (arena_.deleted(w.cref)) return false;
    w.cref = arena_.forward(w.cref);
    return true;
  };
  watches_.rebuild(remap);
  bin_watches_.rebuild(remap);
  for (const Lit l : trail_) {
    Reason& reason = vardata_[static_cast<std::size_t>(l.var())].reason;
    if (reason.kind == ReasonKind::ClauseRef) {
      reason.index = arena_.forward(reason.index);
    }
  }
  arena_ = std::move(to);
  ++stats_.arena_collections;
}

TierCounts CdclSolver::learned_tier_counts() const {
  TierCounts tc;
  for (ClauseRef cr = 0; cr != arena_.end_ref(); cr = arena_.next(cr)) {
    if (!arena_.learnt(cr) || arena_.deleted(cr)) continue;
    switch (clause_tier(cr)) {
      case Tier::Core: ++tc.core; break;
      case Tier::Mid: ++tc.mid; break;
      case Tier::Local: ++tc.local; break;
    }
  }
  return tc;
}

void CdclSolver::maybe_reduce() {
  if (static_cast<double>(learnt_count_) < max_learnts_) return;
  reduce_db();
  max_learnts_ *= 1.2;
}

SolveResult CdclSolver::budget_exit(BudgetTrip trip) {
  last_trip_ = trip;
  switch (trip) {
    case BudgetTrip::Deadline: ++stats_.deadline_exits; break;
    case BudgetTrip::Conflicts: ++stats_.conflict_budget_exits; break;
    case BudgetTrip::Propagations: ++stats_.prop_budget_exits; break;
    case BudgetTrip::Interrupt: ++stats_.interrupt_exits; break;
    case BudgetTrip::None: break;
  }
  backtrack(0);
  return SolveResult::Unknown;
}

SolveResult CdclSolver::solve(const SolveBudget& budget,
                              std::span<const Lit> assumptions) {
  // The core is an artifact of one Unsat-under-assumptions answer; every
  // other outcome leaves it empty (Unsat with an empty core means the
  // formula is unsatisfiable regardless of assumptions).
  core_.clear();
  last_trip_ = BudgetTrip::None;
  if (!ok_) return SolveResult::Unsat;
  // Entry poll: a budget that is already interrupted or expired preempts
  // the solve before any work — the in-loop cadence alone would let an
  // instance that finishes in under one poll interval slip through.
  if (const BudgetTrip entry_trip = budget.poll();
      entry_trip != BudgetTrip::None) {
    return budget_exit(entry_trip);
  }
  // Rebuild hooks for the flat pools: incremental add_clause/add_pb since
  // the last solve appended through the growth path; re-compact to CSR
  // order so the search starts from a garbage-free layout.
  if (pb_occs_dirty_) {
    pb_occs_.compact();
    pb_occs_dirty_ = false;
  }
  if (watches_.sparse()) watches_.compact();
  if (bin_watches_.sparse()) bin_watches_.compact();
  for (const Lit a : assumptions) {
    if (!a.valid() || a.var() >= num_vars()) return SolveResult::Unsat;
  }
  // Every solve() exit unwinds to level 0, so the root pass absorbs
  // whatever was added since the last solve; a conflict there is final.
  assert(decision_level() == 0);
  if (propagate().valid()) {
    ok_ = false;
    return SolveResult::Unsat;
  }
  // Already-satisfied assumptions open dummy decision levels that assign
  // no variable, so the deepest level can exceed num_vars() by up to
  // |assumptions|; the LBD stamp array must cover that range.
  const std::size_t max_levels =
      static_cast<std::size_t>(num_vars()) + assumptions.size() + 1;
  if (lbd_level_stamp_.size() < max_levels) {
    lbd_level_stamp_.resize(max_levels, 0);
  }

  std::int64_t restart_number = 0;
  std::vector<Lit> learnt;
  PbLearned pl;  // analyze_pb output, hoisted like `learnt` (vector reuse)
  // Counted budgets are hoisted to plain integer compares.
  const std::int64_t conflict_budget = budget.conflict_budget();
  const std::int64_t prop_budget = budget.prop_budget();
  const std::int64_t start_conflicts = stats_.conflicts;
  const std::int64_t start_props = stats_.propagations;
  const std::int64_t fault_after =
      config_.fault_injection.throw_after_conflicts;

  for (;;) {
    // Restart boundary (also the solve entry): absorb clauses other
    // portfolio workers published. We are at decision level 0 here, so
    // imports take the ordinary root-clause path; deriving level-0 unsat
    // from a foreign clause ends the search outright.
    if (hooks_.sharing != nullptr && !drain_imports()) {
      ok_ = false;
      return SolveResult::Unsat;
    }
    const std::int64_t interval =
        config_.restart_scheme == RestartScheme::Luby
            ? luby(restart_number + 1) * config_.restart_base
            : static_cast<std::int64_t>(
                  static_cast<double>(config_.restart_base) *
                  std::pow(config_.restart_growth,
                           static_cast<double>(restart_number)));
    ++restart_number;
    ++stats_.restarts;

    std::int64_t conflicts_this_restart = 0;
    std::int64_t ticks = 0;
    for (;;) {
      // Asynchronous conditions (wall clock, interrupt flag) ride a coarse
      // cadence — one clock read / atomic load per 256 search steps bounds
      // the preemption latency without costing the propagation loop
      // anything measurable.
      if (++ticks % 256 == 0) {
        const BudgetTrip async = budget.poll();
        if (async != BudgetTrip::None) return budget_exit(async);
      }
      // Counted budgets are two integer compares — checked every step, so
      // they never overshoot by more than one propagate() fixpoint.
      if (conflict_budget > 0 &&
          stats_.conflicts - start_conflicts >= conflict_budget) {
        return budget_exit(BudgetTrip::Conflicts);
      }
      if (prop_budget > 0 &&
          stats_.propagations - start_props >= prop_budget) {
        return budget_exit(BudgetTrip::Propagations);
      }
      Conflict conflict = propagate();
      if (conflict.valid()) {
        // Native PB learning can leave the learned constraint conflicting
        // again at the backjump level; each round of this loop handles one
        // conflict, and a re-conflict re-enters at a strictly lower
        // decision level (so the loop is bounded by the level).
        for (bool reconflict = true; reconflict;) {
          reconflict = false;
          ++stats_.conflicts;
          ++conflicts_this_restart;
          if (fault_after > 0 &&
              stats_.conflicts - start_conflicts >= fault_after) {
            // Deterministic crash point for the portfolio's exception
            // barrier; deliberately mid-search with the trail standing.
            throw std::runtime_error(
                "fault injection: configured conflict count reached");
          }
          if (decision_level() == 0) {
            ok_ = false;
            return SolveResult::Unsat;
          }
          bool handled = false;
          if (config_.pb_analysis == PbAnalysis::CuttingPlanes &&
              conflict.kind == ReasonKind::PbRef) {
            // Galena-style native PB conflict analysis. Fallback keeps
            // `conflict` untouched, so the clausal path below still sees
            // the original conflicting constraint.
            switch (analyze_pb(conflict, &pl)) {
              case PbOutcome::Unsat:
                ok_ = false;
                return SolveResult::Unsat;
              case PbOutcome::Fallback:
                ++stats_.pb_fallbacks;
                break;
              case PbOutcome::Learned: {
                handled = true;
                stats_.lbd_sum += pl.glue;
                if (pl.is_clause) maybe_export(pl.clause, pl.glue);
                // Chronological backtracking deliberately does NOT apply
                // to PB-learned outcomes: a PB resolvent assertive at its
                // backjump level need not propagate (or conflict) at any
                // higher level, so stopping at L-1 could stall the search
                // or re-learn the same resolvent; and the degenerate
                // clause path's unit enqueue below assumes every other
                // literal is false at exactly pl.backjump.
                backtrack(pl.backjump);
                if (pl.is_clause && pl.clause.size() == 1) {
                  // Asserting unit: the backjump level is 0 by
                  // construction (a unit propagates at every level).
                  enqueue(pl.clause[0], {ReasonKind::None, kInvalidClauseRef});
                } else if (pl.is_clause) {
                  // Watcher discipline: slot 0 gets the asserting (still
                  // unassigned) literal, slot 1 the highest-level
                  // falsified one — the same shape analyze() emits.
                  std::size_t undef_idx = pl.clause.size();
                  for (std::size_t k = 0; k < pl.clause.size(); ++k) {
                    if (value(pl.clause[k]) == LBool::Undef) {
                      undef_idx = k;
                      break;
                    }
                  }
                  if (undef_idx == pl.clause.size()) {
                    // Every literal is false at the backjump level (the
                    // resolvent conflicts rather than propagates there).
                    // A watched-clause attach would break the watcher
                    // invariant mid-conflict, so store it as a degree-1
                    // PB row — occurrence lists and cached slack are
                    // consistent in any assignment state — and loop on
                    // the fresh conflict.
                    pl.terms.clear();
                    for (const Lit cl : pl.clause) pl.terms.push_back({1, cl});
                    const std::uint32_t idx =
                        attach_learned_pb(pl.terms, 1, pl.glue);
                    conflict = {ReasonKind::PbRef, idx};
                    reconflict = true;
                  } else {
                    std::swap(pl.clause[0], pl.clause[undef_idx]);
                    std::size_t max_idx = 1;
                    for (std::size_t k = 1; k < pl.clause.size(); ++k) {
                      if (level(pl.clause[k].var()) >
                          level(pl.clause[max_idx].var())) {
                        max_idx = k;
                      }
                    }
                    std::swap(pl.clause[1], pl.clause[max_idx]);
                    const ClauseRef cref =
                        attach_clause(pl.clause, /*learnt=*/true);
                    arena_.set_lbd(cref, pl.glue);
                    bump_clause(cref);
                    ++learnt_count_;
                    ++stats_.learned_clauses;
                    enqueue(pl.clause[0], {ReasonKind::ClauseRef, cref});
                  }
                } else {
                  const std::uint32_t idx =
                      attach_learned_pb(pl.terms, pl.degree, pl.glue);
                  maybe_export_pb(pl.terms, pl.degree, pl.glue);
                  const std::int64_t slack = pbs_[idx].slack;
                  if (slack < 0) {
                    conflict = {ReasonKind::PbRef, idx};
                    reconflict = true;
                  } else {
                    for (const PbTerm& t : pb_terms(pbs_[idx])) {
                      if (t.coeff <= slack) break;  // sorted by desc coeff
                      if (value(t.lit) == LBool::Undef) {
                        enqueue(t.lit, {ReasonKind::PbRef, idx});
                      }
                    }
                  }
                }
                break;
              }
            }
          }
          if (!handled) {
            int backjump = 0;
            int lbd = 1;
            analyze(conflict, &learnt, &backjump, &lbd);
            stats_.lbd_sum += lbd;
            maybe_export(learnt, lbd);
            // Chronological backtracking (CaDiCaL/MapleLCM): when the
            // 1UIP backjump would discard a long stretch of levels, undo
            // only the conflicting level and assert the learnt clause one
            // level down — the skipped levels' propagations stay standing.
            // Sound here because (a) assignments record their enqueue-time
            // decision level, so the trail stays level-monotone and
            // analyze()/analyze_final()/for_each_reason_lit see the same
            // invariants as eager backjumping; (b) every non-asserting
            // learnt literal sits at level <= backjump <= L-1, so the
            // watcher attach below is shape-identical; (c) assumption
            // levels keep their positional mapping — chrono only removes
            // the top level. Unit learnts are excluded: their reason-less
            // enqueue is only legal at level 0, where analyze_final and
            // the analysis walk both know to stop.
            int target = backjump;
            if (config_.chrono_threshold > 0 && learnt.size() > 1 &&
                decision_level() - backjump > config_.chrono_threshold) {
              target = decision_level() - 1;
              ++stats_.chrono_backtracks;
              stats_.saved_propagations +=
                  trail_lim_[static_cast<std::size_t>(target)] -
                  trail_lim_[static_cast<std::size_t>(backjump)];
            }
            backtrack(target);
            if (learnt.size() == 1) {
              enqueue(learnt[0], {ReasonKind::None, kInvalidClauseRef});
            } else {
              const ClauseRef cref = attach_clause(learnt, /*learnt=*/true);
              arena_.set_lbd(cref, lbd);
              bump_clause(cref);
              enqueue(learnt[0], {ReasonKind::ClauseRef, cref});
              ++learnt_count_;
              ++stats_.learned_clauses;
            }
          }
          decay_activities();
        }
        continue;
      }

      // No conflict: restart, reduce, or decide.
      if (conflicts_this_restart >= interval) {
        backtrack(0);
        break;  // restart
      }
      maybe_reduce();

      // Take pending assumptions as pseudo-decisions first.
      Lit next = kUndefLit;
      while (decision_level() < static_cast<int>(assumptions.size())) {
        const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::True) {
          new_decision_level();  // already satisfied: dummy level
        } else if (value(a) == LBool::False) {
          // Unsat under assumptions: the prefix taken so far already
          // implies ~a. Extract the failed-assumption core while the
          // implication graph is still standing, then unwind.
          analyze_final(a);
          backtrack(0);
          return SolveResult::Unsat;
        } else {
          next = a;
          break;
        }
      }
      if (!next.valid()) {
        next = pick_branch();
        if (!next.valid()) {
          // Complete assignment: SAT.
          model_.assign(assigns_.begin(), assigns_.end());
          backtrack(0);
          return SolveResult::Sat;
        }
        ++stats_.decisions;
      }
      new_decision_level();
      enqueue(next, {ReasonKind::None, kInvalidClauseRef});
    }
  }
}

CdclSolver::ProbeResult CdclSolver::probe_assumptions(
    std::span<const Lit> assumptions) {
  ProbeResult result;
  if (!ok_) {
    result.refuted = true;
    return result;
  }
  assert(decision_level() == 0);
  if (propagate().valid()) {
    ok_ = false;  // level-0 conflict: unsat outright
    result.refuted = true;
    return result;
  }
  const int root = static_cast<int>(trail_.size());
  result.free_vars = num_vars() - root;
  for (const Lit a : assumptions) {
    if (!a.valid() || a.var() >= num_vars() ||
        value(a) == LBool::False) {
      result.refuted = true;
      break;
    }
    if (value(a) == LBool::True) continue;
    new_decision_level();
    enqueue(a, {ReasonKind::None, kInvalidClauseRef});
    if (propagate().valid()) {
      result.refuted = true;
      break;
    }
  }
  if (!result.refuted) {
    result.forced = static_cast<int>(trail_.size()) - root;
  }
  backtrack(0);
  return result;
}

std::vector<Var> CdclSolver::top_branch_candidates(int k) const {
  std::vector<Var> pool;
  if (k <= 0) return pool;
  pool.reserve(static_cast<std::size_t>(num_vars()));
  for (Var v = 0; v < num_vars(); ++v) {
    if (value(v) == LBool::Undef) pool.push_back(v);
  }
  const std::vector<double>& activity = order_.scores();
  const auto occurrences = [this](Var v) {
    const auto pos = static_cast<std::size_t>(Lit::positive(v).code());
    const auto neg = static_cast<std::size_t>(Lit::negative(v).code());
    return static_cast<std::size_t>(watches_.size(pos)) +
           static_cast<std::size_t>(watches_.size(neg)) +
           static_cast<std::size_t>(bin_watches_.size(pos)) +
           static_cast<std::size_t>(bin_watches_.size(neg));
  };
  const auto better = [&](Var a, Var b) {
    const double aa = activity[static_cast<std::size_t>(a)];
    const double ab = activity[static_cast<std::size_t>(b)];
    if (aa != ab) return aa > ab;
    const std::size_t oa = occurrences(a);
    const std::size_t ob = occurrences(b);
    if (oa != ob) return oa > ob;
    return a < b;
  };
  const auto take = std::min(pool.size(), static_cast<std::size_t>(k));
  std::partial_sort(pool.begin(),
                    pool.begin() + static_cast<std::ptrdiff_t>(take),
                    pool.end(), better);
  pool.resize(take);
  return pool;
}

}  // namespace symcolor
