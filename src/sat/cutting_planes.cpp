#include "sat/cutting_planes.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "sat/cdcl.h"

namespace symcolor {

namespace {

using ReasonKind = PropEngine::ReasonKind;

// Overflow-checked int64 arithmetic: any overflow aborts the analysis
// (the caller falls back to clause weakening), so nothing silently wraps.
inline bool add_ov(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_add_overflow(a, b, out);
}
inline bool mul_ov(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_mul_overflow(a, b, out);
}

// Cutting-planes resolution steps per conflict before bailing to the
// Weaken path (defensive bound; real analyses stay far below).
constexpr std::size_t kPbMaxResolutions = 4096;

}  // namespace

void CuttingPlanes::resize(std::size_t num_vars) {
  coef_.assign(num_vars, 0);
  lit_.assign(num_vars, kUndefLit);
  in_.assign(num_vars, 0);
}

bool CuttingPlanes::load(const PropEngine& e, Conflict conflict) {
  for (const Var v : vars_) {
    coef_[static_cast<std::size_t>(v)] = 0;
    in_[static_cast<std::size_t>(v)] = 0;
  }
  vars_.clear();
  degree_ = 0;
  const auto add = [&](std::int64_t a, Lit l) -> bool {
    const auto v = static_cast<std::size_t>(l.var());
    // Level-0 strengthening: a globally false literal drops outright (it
    // is unit-implied away, degree unchanged), a globally true one drops
    // with its weight paid off the degree. Exactly mirrors how add_clause
    // simplifies against the level-0 assignment.
    if (e.value(l.var()) != LBool::Undef && e.level(l.var()) == 0) {
      if (e.value(l) == LBool::False) return true;
      return !add_ov(degree_, -a, &degree_);
    }
    assert(!in_[v]);
    in_[v] = 1;
    vars_.push_back(l.var());
    coef_[v] = a;
    lit_[v] = l;
    return true;
  };
  degree_ = e.bound(conflict);
  return e.for_each_term(conflict, add);
}

std::int64_t CuttingPlanes::slack_full(const PropEngine& e) const {
  __int128 s = -static_cast<__int128>(degree_);
  for (const Var v : vars_) {
    const std::int64_t a = coef_[static_cast<std::size_t>(v)];
    if (a != 0 && e.value(lit_[static_cast<std::size_t>(v)]) != LBool::False) {
      s += a;
    }
  }
  // Saturating clamp: saturation errs toward extra weakening, never
  // toward an unsound resolvent.
  using Limits = std::numeric_limits<std::int64_t>;
  return static_cast<std::int64_t>(
      std::clamp<__int128>(s, Limits::min(), Limits::max()));
}

bool CuttingPlanes::assertive(const PropEngine& e) const {
  // Assertive below the current level L: with every level-L (and dummy
  // assumption level) assignment undone, the resolvent either still
  // conflicts or forces some literal not assigned below L. Terms false
  // below L stay false; everything else — unassigned, true anywhere,
  // false at L — counts as non-false, and the not-assigned-below-L subset
  // are the propagation candidates.
  const int L = e.decision_level();
  __int128 slack = -static_cast<__int128>(degree_);
  std::int64_t maxcand = 0;
  for (const Var v : vars_) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t a = coef_[vi];
    if (a == 0) continue;
    const bool assigned_below = e.value(v) != LBool::Undef && e.level(v) < L;
    if (assigned_below && e.value(lit_[vi]) == LBool::False) continue;
    slack += a;
    if (!assigned_below) maxcand = std::max(maxcand, a);
  }
  return slack < 0 || static_cast<__int128>(maxcand) > slack;
}

bool CuttingPlanes::saturate_and_divide() {
  if (degree_ <= 0) return false;
  std::int64_t g = 0;
  for (const Var v : vars_) {
    std::int64_t& a = coef_[static_cast<std::size_t>(v)];
    if (a == 0) continue;
    if (a > degree_) a = degree_;  // saturation
    g = std::gcd(g, a);
  }
  if (g <= 1) return true;  // g == 0: empty resolvent — caller decides
  for (const Var v : vars_) {
    std::int64_t& a = coef_[static_cast<std::size_t>(v)];
    if (a != 0) a /= g;
  }
  // Chvátal-Gomory rounding: the bound divides rounding UP, which is the
  // sound direction (the integer LHS cannot land strictly between).
  degree_ = degree_ / g + (degree_ % g != 0 ? 1 : 0);
  return true;
}

bool CuttingPlanes::weaken_nonfalse(const PropEngine& e) {
  for (const Var v : vars_) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t a = coef_[vi];
    if (a == 0 || e.value(lit_[vi]) == LBool::False) continue;
    // Weakening a non-false term (drop it, pay its weight off the degree)
    // leaves the slack unchanged, so the resolvent stays conflicting.
    coef_[vi] = 0;
    degree_ -= a;
  }
  if (degree_ <= 0) return false;
  return saturate_and_divide();
}

bool CuttingPlanes::reduce_reason(const PropEngine& e, Reason reason, Lit l,
                                  int pos_l) {
  reason_.clear();
  cands_.clear();
  reason_degree_ = 0;
  std::int64_t coef_l = 0;
  const auto load_term = [&](std::int64_t a, Lit t) -> bool {
    if (t == l) {
      coef_l = a;
      return true;
    }
    const Var v = t.var();
    if (e.value(v) != LBool::Undef && e.level(v) == 0) {
      if (e.value(t) == LBool::False) return true;  // strengthen away
      return !add_ov(reason_degree_, -a, &reason_degree_);
    }
    if (e.value(t) == LBool::False) {
      if (e.trail_pos(v) < pos_l) {
        reason_.push_back({a, t});  // falsified before l: keep
        return true;
      }
      // Falsified AFTER l was propagated: weaken unconditionally, or the
      // resolvent would gain a literal past the analysis walk's cursor
      // and the walk could miss it. (Weakening a false term raises the
      // reason's slack; the loop below re-establishes the guarantee.)
      return !add_ov(reason_degree_, -a, &reason_degree_);
    }
    cands_.push_back({a, t});  // non-false: optional weakening fodder
    return true;
  };
  const Conflict constraint = PropEngine::constraint_of(reason, l);
  reason_degree_ = e.bound(constraint);
  if (!e.for_each_term(constraint, load_term) || coef_l <= 0 ||
      reason_degree_ <= 0) {
    return false;
  }

  // Weaken candidates (weakest coefficients first — they cost the least
  // strength) until the planned resolvent is guaranteed conflicting:
  // slack is subadditive under the scaled addition, so it suffices that
  //   c1 * slack(resolvent) + c2 * slack(reason) < 0
  // with c1 = coef_l/g, c2 = p/g the cancellation multipliers. Because a
  // fully weakened reason (l plus only falsified-before-l literals,
  // saturated) has slack <= 0, the loop always terminates in a state that
  // satisfies the condition.
  std::sort(cands_.begin(), cands_.end(),
            [](const PbTerm& a, const PbTerm& b) { return a.coeff < b.coeff; });
  const __int128 slack_c = slack_full(e);  // < 0: analyze()'s invariant
  const std::int64_t p =
      coef_[static_cast<std::size_t>(l.var())];  // resolvent's ~l weight
  std::size_t weakened = 0;
  for (;;) {
    // Saturate the reason at its current degree.
    if (coef_l > reason_degree_) coef_l = reason_degree_;
    for (PbTerm& t : reason_) t.coeff = std::min(t.coeff, reason_degree_);
    __int128 slack_r =
        static_cast<__int128>(coef_l) - static_cast<__int128>(reason_degree_);
    for (std::size_t i = weakened; i < cands_.size(); ++i) {
      cands_[i].coeff = std::min(cands_[i].coeff, reason_degree_);
      slack_r += cands_[i].coeff;  // non-false terms all count
    }
    const std::int64_t g = std::gcd(p, coef_l);
    const __int128 c1 = coef_l / g;
    const __int128 c2 = p / g;
    if (c1 * slack_c + c2 * slack_r < 0) break;
    if (weakened == cands_.size()) return false;  // unreachable; defensive
    reason_degree_ -= cands_[weakened].coeff;
    ++weakened;
    if (reason_degree_ <= 0) return false;  // degenerated to tautology
  }
  // Emit: l's own term first (resolve() reads the coefficient there),
  // then the kept falsified terms and the surviving candidates.
  reason_.insert(reason_.begin(), {coef_l, l});
  reason_.insert(reason_.end(), cands_.begin() + weakened, cands_.end());
  return true;
}

bool CuttingPlanes::resolve(Var pivot) {
  // The accumulator := c1 * accumulator + c2 * reason_, cancelling the
  // pivot. All stored arithmetic is overflow-checked int64; gcd division
  // and saturation right after keep the coefficients from compounding.
  const std::int64_t p = coef_[static_cast<std::size_t>(pivot)];
  const std::int64_t q = reason_[0].coeff;  // the pivot's own coefficient
  const std::int64_t g = std::gcd(p, q);
  const std::int64_t c1 = q / g;
  const std::int64_t c2 = p / g;
  if (c1 > 1) {
    for (const Var v : vars_) {
      std::int64_t& a = coef_[static_cast<std::size_t>(v)];
      if (a != 0 && mul_ov(a, c1, &a)) return false;
    }
    if (mul_ov(degree_, c1, &degree_)) return false;
  }
  std::int64_t scaled_degree = 0;
  if (mul_ov(reason_degree_, c2, &scaled_degree) ||
      add_ov(degree_, scaled_degree, &degree_)) {
    return false;
  }
  for (const PbTerm& t : reason_) {
    std::int64_t a2 = 0;
    if (mul_ov(t.coeff, c2, &a2)) return false;
    const auto vi = static_cast<std::size_t>(t.lit.var());
    if (coef_[vi] == 0) {
      if (!in_[vi]) {
        in_[vi] = 1;
        vars_.push_back(t.lit.var());
      }
      coef_[vi] = a2;
      lit_[vi] = t.lit;
    } else if (lit_[vi] == t.lit) {
      if (add_ov(coef_[vi], a2, &coef_[vi])) return false;
    } else {
      // Opposite literals: a*x + b*~x = min(a,b) + |a-b|*(majority side),
      // so the degree pays min(a,b) and the difference stays.
      const std::int64_t m = std::min(coef_[vi], a2);
      degree_ -= m;
      if (coef_[vi] == a2) {
        coef_[vi] = 0;
      } else if (coef_[vi] > a2) {
        coef_[vi] -= a2;
      } else {
        coef_[vi] = a2 - coef_[vi];
        lit_[vi] = t.lit;
      }
    }
  }
  assert(coef_[static_cast<std::size_t>(pivot)] == 0);  // exact cancellation
  return degree_ > 0 && saturate_and_divide();
}

int CuttingPlanes::backjump_level(const PropEngine& e) {
  // The lowest level b < L at which the resolvent still conflicts or
  // propagates. slack_b counts every term not falsified at levels <= b
  // (unassigned terms and terms assigned above b revert to non-false
  // after backtracking); propagation candidates at b are exactly the
  // terms not assigned at or below b.
  const int L = e.decision_level();
  std::vector<BjEnt>& ents = bj_ents_;
  ents.clear();
  __int128 total = 0;
  std::int64_t unassigned_max = 0;
  for (const Var v : vars_) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t a = coef_[vi];
    if (a == 0) continue;
    total += a;
    if (e.value(v) == LBool::Undef) {
      unassigned_max = std::max(unassigned_max, a);
      continue;
    }
    ents.push_back({e.level(v), a, e.value(lit_[vi]) == LBool::False});
  }
  std::sort(ents.begin(), ents.end(),
            [](const BjEnt& a, const BjEnt& b) { return a.lvl < b.lvl; });
  std::vector<std::int64_t>& suffix_max = bj_suffix_;
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
        total - false_below - static_cast<__int128>(degree_);
    const std::int64_t cand = std::max(unassigned_max, suffix_max[i]);
    if (slack_b < 0 || static_cast<__int128>(cand) > slack_b) return b;
  }
  // assertive() held, so b = L-1 must have fired; keep a sane answer.
  return L - 1;
}

CuttingPlanes::Outcome CuttingPlanes::analyze(const PropEngine& e,
                                              Conflict conflict,
                                              Learned* out) {
  trace_.loaded_conflict = false;
  trace_.pivots.clear();
  trace_.resolutions = 0;
  if (!load(e, conflict)) return Outcome::Fallback;
  if (degree_ <= 0 || !saturate_and_divide()) return Outcome::Fallback;
  trace_.loaded_conflict = true;
  if (slack_full(e) >= 0) return Outcome::Fallback;  // defensive

  const std::vector<Lit>& trail = e.trail();
  int i = static_cast<int>(trail.size()) - 1;
  while (!assertive(e)) {
    // Latest trail literal the resolvent depends on (its negation carries
    // a nonzero coefficient).
    while (i >= 0) {
      const Lit t = trail[static_cast<std::size_t>(i)];
      const auto vi = static_cast<std::size_t>(t.var());
      if (coef_[vi] != 0 && lit_[vi] == ~t) break;
      --i;
    }
    if (i < 0) return Outcome::Fallback;  // defensive: nothing to resolve
    const Lit l = trail[static_cast<std::size_t>(i)];
    const Reason r = e.reason(l.var());
    if (r.kind == ReasonKind::None) {
      // A decision (or assumption pseudo-decision) has no reason to
      // resolve with. Weakening every non-false term out of the resolvent
      // preserves the conflict; if even that does not make it assertive,
      // hand the conflict to the clausal path.
      if (!weaken_nonfalse(e) || !assertive(e)) return Outcome::Fallback;
      break;
    }
    if (trace_.pivots.size() >= kPbMaxResolutions) return Outcome::Fallback;
    trace_.pivots.push_back(l.var());
    if (!reduce_reason(e, r, l, i) || !resolve(l.var())) {
      return Outcome::Fallback;
    }
    assert(slack_full(e) < 0);
    ++trace_.resolutions;
    --i;
  }

  // Emit the assertive resolvent.
  if (std::none_of(vars_.begin(), vars_.end(), [&](Var v) {
        return coef_[static_cast<std::size_t>(v)] != 0;
      })) {
    return Outcome::Unsat;  // 0 >= degree > 0: level-0 conflict
  }
  out->backjump = backjump_level(e);
  // Saturation left every coefficient at 1 under degree 1: the resolvent
  // IS a clause.
  out->is_clause = degree_ == 1;
  out->degree = degree_;
  out->clause.clear();
  out->terms.clear();
  for (const Var v : vars_) {
    const auto vi = static_cast<std::size_t>(v);
    if (coef_[vi] == 0) continue;
    if (out->is_clause) {
      out->clause.push_back(lit_[vi]);
    } else {
      out->terms.push_back({coef_[vi], lit_[vi]});
    }
  }
  std::sort(out->terms.begin(), out->terms.end(),
            [](const PbTerm& a, const PbTerm& b) {
              if (a.coeff != b.coeff) return a.coeff > b.coeff;
              return a.lit.code() < b.lit.code();
            });
  return Outcome::Learned;
}

// ---- the searcher's side of the cutting-planes path ----

CuttingPlanes::Outcome CdclSolver::analyze_pb(Conflict conflict,
                                              CuttingPlanes::Learned* out) {
  const CuttingPlanes::Outcome outcome = cp_.analyze(*this, conflict, out);
  // The activity bumps, in the order the analysis drew on its constraints.
  const CuttingPlanes::Trace& trace = cp_.trace();
  if (trace.loaded_conflict) bump_pb(conflict.index);
  for (const Var v : trace.pivots) {
    bump_var(v);
    const Reason r = reason(v);
    if (r.kind == ReasonKind::ClauseRef) {
      bump_clause(r.index);
      touch_learnt(r.index);
    } else if (r.kind == ReasonKind::PbRef) {
      bump_pb(r.index);
    }
  }
  stats_.pb_resolutions += trace.resolutions;
  if (outcome == CuttingPlanes::Outcome::Fallback) ++stats_.pb_fallbacks;
  return outcome;
}

bool CdclSolver::learn_pb(CuttingPlanes::Learned& pl, Conflict* conflict) {
  // Glue equivalent: distinct decision levels among the falsified terms,
  // measured before the backjump unassigns them.
  ++lbd_stamp_;
  int glue = 0;
  const auto count_level = [&](Lit l) {
    const int lvl = level(l.var());
    if (value(l) != LBool::False || lvl <= 0) return;
    auto& stamp = lbd_level_stamp_[static_cast<std::size_t>(lvl)];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++glue;
    }
  };
  for (const Lit l : pl.clause) count_level(l);
  for (const PbTerm& t : pl.terms) count_level(t.lit);
  glue = std::max(glue, 1);
  stats_.lbd_sum += glue;
  // No chronological backtracking here: a PB resolvent assertive at its
  // backjump level need not propagate (or conflict) any higher, so
  // stopping at L-1 could stall the search; and the clause path below
  // assumes every other literal is false at exactly pl.backjump. (A
  // unit's backjump level is 0 by construction.)
  if (pl.is_clause) maybe_export(pl.clause, glue);
  backtrack(pl.backjump);
  if (pl.is_clause) {
    const auto undef =
        std::find_if(pl.clause.begin(), pl.clause.end(),
                     [&](Lit l) { return value(l) == LBool::Undef; });
    if (undef == pl.clause.end()) {
      // Every literal is false at the backjump level: a watched-clause
      // attach would break the watcher invariant mid-conflict, so store
      // it as a degree-1 PB row (consistent in any assignment state) and
      // analyze the fresh conflict.
      for (const Lit l : pl.clause) pl.terms.push_back({1, l});
      *conflict = {ReasonKind::PbRef, attach_learned_pb(pl.terms, 1, glue)};
      return true;
    }
    // Watcher discipline: slot 0 gets the asserting (still unassigned)
    // literal, slot 1 the highest-level falsified one.
    std::iter_swap(pl.clause.begin(), undef);
    if (pl.clause.size() > 1) {
      std::iter_swap(pl.clause.begin() + 1,
                     std::max_element(pl.clause.begin() + 1, pl.clause.end(),
                                      [&](Lit a, Lit b) {
                                        return level(a.var()) < level(b.var());
                                      }));
    }
    learn_clause(pl.clause, glue);
    return false;
  }
  const std::uint32_t index = attach_learned_pb(pl.terms, pl.degree, glue);
  maybe_export_pb(pl.terms, pl.degree, glue);
  if (propagate_row(index)) return false;
  *conflict = {ReasonKind::PbRef, index};
  return true;
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

}  // namespace symcolor
