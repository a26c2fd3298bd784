#include "sat/cdcl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sat/luby.h"

namespace symcolor {

namespace {

// Learnt-constraint activity decay (clause and PB rows alike; MiniSat's
// value — every solver profile uses it).
constexpr double kClauseDecay = 0.999;
// Longest clause or PB row exchanged between parallel workers, enforced on
// both sides (glue caps alone admit arbitrarily long clauses).
constexpr std::size_t kShareMaxSize = 64;

/// Runs `f` at scope exit, a throw included.
template <typename F>
struct OnExit {
  F f;
  ~OnExit() { f(); }
};

}  // namespace

CdclSolver::CdclSolver(const Formula& formula, SolverConfig config)
    : PropEngine(formula), config_(config), rng_(config.random_seed) {
  // The pools follow the per-variable arrays. The order still moves heap
  // placement after the pools stopped doubling: allocated first, they
  // took suite-solver's peak RSS from 20.96 to 22.16 MB in 3 of 5 runs
  // and satloop's total_s up 1.7 % (5 of 5 pairs, 4-vCPU Linux, glibc).
  const auto n = static_cast<std::size_t>(formula.num_vars());
  order_.assign_scores(n, 0.0);
  polarity_.assign(n, config_.default_phase ? 1 : 0);
  seen_.assign(n, 0);
  cp_.resize(n);
  lbd_level_stamp_.assign(n + 1, 0);  // one slot per possible decision level
  init_pools();
  std::vector<Var> vars(n);
  std::iota(vars.begin(), vars.end(), 0);
  order_.rebuild(vars);
  load(formula);
  // Aggressive first reduction (Glucose lineage): with LBD tiers
  // protecting core/mid clauses, a small local pool propagates much
  // faster than MiniSat's max(2000, m/3) would allow, and the 1.2 growth
  // per reduction still lets the DB scale with genuinely hard searches.
  max_learnts_ =
      config_.max_learnts_init > 0.0
          ? config_.max_learnts_init
          : std::max(800.0, static_cast<double>(live_clauses()) / 8.0);
}

void CdclSolver::reconfigure(const SolverConfig& config) {
  config_ = config;
  rng_ = Rng(config.random_seed);
  // A copied vector loses its capacity: restore the trail reservation
  // (the portfolio reconfigures every clone before it searches).
  trail_.reserve(vardata_.size());
  trail_lim_.reserve(vardata_.size());
  if (config.max_learnts_init > 0.0) max_learnts_ = config.max_learnts_init;
}

void CdclSolver::analyze(Conflict conflict, std::vector<Lit>* learnt,
                         int* backjump, int* lbd) {
  learnt->clear();
  learnt->push_back(kUndefLit);  // slot for the asserting (1UIP) literal

  // Marks stay set for the whole analysis (a variable must be counted
  // once) and are cleared in one sweep at the end; they also make the
  // implied literal a clause reason yields harmless (already marked).
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

  // Resolve backwards along the trail, the conflict first, until one
  // literal of the conflict level is left. Binary clauses carry no
  // activity or LBD: they are core tier and never deleted.
  if (conflict.kind == ReasonKind::ClauseRef) {
    bump_clause(conflict.index);
    touch_learnt(conflict.index);
  }
  for_each_conflict_lit(conflict, absorb);
  Lit p = kUndefLit;
  int index = static_cast<int>(trail_.size()) - 1;
  for (;;) {
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())]) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index--)];
    if (--counter == 0) break;
    const Reason r = reason(p.var());
    assert(r.valid());
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
  // the clause) and the LBD; the asserting literal sits alone at the
  // conflict level, hence the count starts at 1.
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

void CdclSolver::analyze_final(Lit failed) {
  // Assumptions are taken before any branch decision, so every
  // reason-less trail literal reached from ~failed is an assumption.
  core_.clear();
  core_.push_back(failed);
  if (decision_level() == 0) return;  // implied by root units alone
  seen_[static_cast<std::size_t>(failed.var())] = 1;
  const int start = trail_lim_[0];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= start; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(p.var());
    if (!seen_[v]) continue;
    const Reason r = reason(p.var());
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
    const Reason r = reason(l.var());
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

void CdclSolver::learn_clause(std::span<const Lit> lits, int lbd) {
  if (lits.size() == 1) {
    enqueue(lits[0], {});
    return;
  }
  ++learnt_count_;
  ++stats_.learned_clauses;
  const ClauseRef cref = attach_clause(lits, /*learnt=*/true);
  if (lits.size() == 2) {
    enqueue(lits[0],
            {ReasonKind::Binary, static_cast<std::uint32_t>(lits[1].code())});
    return;
  }
  arena_.set_lbd(cref, lbd);
  bump_clause(cref);
  enqueue(lits[0], {ReasonKind::ClauseRef, cref});
}

void CdclSolver::backtrack(int target_level) {
  PropEngine::backtrack(target_level, [this](Lit p) {
    if (config_.phase_saving) {
      polarity_[static_cast<std::size_t>(p.var())] = p.negated() ? 0 : 1;
    }
    order_.insert(p.var());
  });
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
    if (value(v) == LBool::Undef) return Lit(v, !saved_phase(v));
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
  order_.increase(v);
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
  // Core clauses cannot improve in tier. All literals of a conflict or
  // reason clause are assigned, so their levels are fresh.
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
  // Same admission caps as clause exports. Only cutting-planes workers
  // learn PB rows, so only they use this lane.
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
    // The exporter filtered on ITS caps, which (after reconfigure-based
    // diversification) need not match ours: re-check them here.
    if (sc.lbd > config_.share_max_lbd ||
        sc.lits.size() > kShareMaxSize) {
      ++stats_.rejected_imports;
      continue;
    }
    ++stats_.imported_clauses;
    // Learnt clauses are consequences of the shared formula (conflict
    // analysis never resolves on assumption pseudo-decisions), so a
    // foreign clause is loaded like a problem clause, level-0 refutation
    // included. Glue imports would be core-tier anyway, so attaching them
    // as permanent clauses loses nothing to reduce_db().
    if (!add_clause(std::move(sc.lits))) return false;
  }
  // Learned PB rows travel the same way; add_pb re-normalizes the row.
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

void CdclSolver::reduce_db() {
  // The tier policy of the header comment; locked clauses are retained
  // regardless.
  std::vector<ClauseRef> candidates;
  std::int64_t core = learnt_binaries_;
  std::int64_t mid = 0;
  std::int64_t local_locked = 0;
  for (ClauseRef cr = 0; cr != arena_.end_ref(); cr = arena_.next(cr)) {
    if (!arena_.learnt(cr)) continue;
    const Tier tier = clause_tier(cr);
    if (tier == Tier::Core) {
      ++core;
      continue;
    }
    const bool drop = retire(tier, arena_.used(cr), clause_locked(cr));
    arena_.clear_used(cr);
    if (drop) {
      candidates.push_back(cr);
    } else {
      ++(tier == Tier::Mid ? mid : local_locked);
    }
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
    garbage_collect([this](ClauseRef cr) {
      return arena_.learnt(cr) ? static_cast<int>(clause_tier(cr)) : 0;
    });
  }
  reduce_learned_pbs();
}

bool CdclSolver::retire(Tier tier, bool used, bool locked) {
  if (locked || (tier == Tier::Mid && used)) return false;
  if (tier == Tier::Mid) ++stats_.tier_demotions;
  return true;
}

void CdclSolver::reduce_learned_pbs() {
  if (stats_.learned_pbs == stats_.deleted_pbs) return;  // no learnt rows
  // Rows serving as trail reasons are locked (their slack history is part
  // of the implication graph the next analyses will walk).
  std::vector<char> locked(pbs_.size(), 0);
  for (const Lit l : trail_) {
    const Reason r = reason(l.var());
    if (r.kind == ReasonKind::PbRef) locked[r.index] = 1;
  }
  // Same tier policy as the clause DB.
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t idx = 0; idx < pbs_.size(); ++idx) {
    PbData& pb = pbs_[idx];
    const Tier tier = tier_of(pb.lbd);
    if (!(pb.flags & kPbLearnt) || tier == Tier::Core) continue;
    const bool drop = retire(tier, (pb.flags & kPbUsed) != 0, locked[idx]);
    pb.flags &= ~kPbUsed;
    if (drop) candidates.push_back(idx);
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
  compact_pbs();
}

TierCounts CdclSolver::learned_tier_counts() const {
  TierCounts tc{.core = learnt_binaries_, .binary = learnt_binaries_};
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
  count_budget_exit(&stats_, trip);
  backtrack(0);
  return SolveResult::Unknown;
}

SolveResult CdclSolver::solve(const SolveBudget& budget,
                              std::span<const Lit> assumptions) {
  using Outcome = CuttingPlanes::Outcome;
  // Only an Unsat-under-assumptions answer fills the core.
  core_.clear();
  last_trip_ = BudgetTrip::None;
  if (!ok_) return SolveResult::Unsat;
  // Entry poll: the in-loop cadence alone would let an instance that
  // finishes in under one poll interval slip past a spent budget.
  if (const BudgetTrip entry_trip = budget.poll();
      entry_trip != BudgetTrip::None) {
    return budget_exit(entry_trip);
  }
  // The ledger: charge the chain what this call spends at every poll and,
  // through the guard, on every exit.
  std::int64_t charged_conflicts = stats_.conflicts;
  std::int64_t charged_props = stats_.propagations;
  const auto charge = [&] {
    budget.charge(
        stats_.conflicts - std::exchange(charged_conflicts, stats_.conflicts),
        stats_.propagations -
            std::exchange(charged_props, stats_.propagations));
  };
  const OnExit charge_on_exit{charge};
  // Counted caps: the chain's remainder at entry, as integer compares.
  const std::int64_t conflicts_left = budget.conflicts_left();
  const std::int64_t props_left = budget.propagations_left();
  const std::int64_t start_conflicts = stats_.conflicts;
  const std::int64_t start_props = stats_.propagations;
  // The search starts from garbage-free pools.
  compact_pools();
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
  CuttingPlanes::Learned pl;  // analyze_pb output, hoisted like `learnt`
  const std::int64_t fault_after =
      config_.fault_injection.throw_after_conflicts;

  for (;;) {
    // Restart boundary (also the solve entry), at level 0: absorb what
    // other workers published.
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
      // The ledger and the asynchronous conditions (wall clock, interrupt
      // flag, caps other solves spent) ride a coarse cadence.
      if (++ticks % 256 == 0) {
        charge();
        const BudgetTrip async = budget.poll();
        if (async != BudgetTrip::None) return budget_exit(async);
      }
      // This call's own spend is checked every step, so a cap never
      // overshoots by more than one propagate() fixpoint.
      if (stats_.conflicts - start_conflicts >= conflicts_left) {
        return budget_exit(BudgetTrip::Conflicts);
      }
      if (stats_.propagations - start_props >= props_left) {
        return budget_exit(BudgetTrip::Propagations);
      }
      Conflict conflict = propagate();
      if (conflict.valid()) {
        // One conflict per round; a learned PB constraint conflicting
        // again at its (strictly lower) backjump level re-enters.
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
          // Cutting planes first; Fallback leaves `conflict` to the
          // clausal path.
          Outcome outcome = Outcome::Fallback;
          if (config_.pb_analysis == PbAnalysis::CuttingPlanes &&
              conflict.kind == ReasonKind::PbRef) {
            outcome = analyze_pb(conflict, &pl);
            if (outcome == Outcome::Unsat) {
              ok_ = false;
              return SolveResult::Unsat;
            }
            if (outcome == Outcome::Learned) reconflict = learn_pb(pl, &conflict);
          }
          if (outcome == Outcome::Fallback) {
            int backjump = 0;
            int lbd = 1;
            analyze(conflict, &learnt, &backjump, &lbd);
            stats_.lbd_sum += lbd;
            maybe_export(learnt, lbd);
            // Chronological backtracking (SolverConfig::chrono_threshold).
            // Also sound for the watcher attach: every non-asserting learnt
            // literal sits at level <= backjump <= L-1. Assumption levels
            // keep their positional mapping (only the top level goes).
            // Unit learnts are excluded: their reason-less enqueue is only
            // legal at level 0.
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
            learn_clause(learnt, lbd);
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
          model_.resize(vardata_.size());
          for (std::size_t v = 0; v < model_.size(); ++v) {
            model_[v] = value(static_cast<Var>(v));
          }
          backtrack(0);
          return SolveResult::Sat;
        }
        ++stats_.decisions;
      }
      new_decision_level();
      enqueue(next, {});
    }
  }
}

CdclSolver::ProbeResult CdclSolver::probe_assumptions(
    std::span<const Lit> assumptions) {
  const ProbeResult result = probe(assumptions);
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
