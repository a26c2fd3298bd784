#pragma once
// PropEngine — the propagation layer of the CDCL(+PB) engine: constraint
// storage, the assignment and the trail, and propagation over them —
// two watched literals for clauses, counters (slack maintenance) for
// pseudo-Boolean constraints. The searcher (CdclSolver, sat/cdcl.h)
// derives from it; the cutting-planes analyzer (sat/cutting_planes.h)
// reads it through a const reference. What an operation needs from the
// searcher arrives as an argument, never as a stored pointer.
//
// Constraint storage (the propagation hot path):
//   * Clauses of three or more literals live in a single contiguous
//     ClauseArena (sat/clause_arena.h) as [header | activity | lits...]
//     records addressed by 32-bit ClauseRefs; LBD and the used flag ride
//     in spare header bits so the record stays at the minimal 2 + size
//     words. Watchers carry {ClauseRef, blocker literal}; a watcher visit
//     whose blocker is already true never touches the arena at all.
//   * Watch lists live in flat watcher pools (sat/watcher_pool.h):
//     per-literal {offset, size, capacity} headers into a single
//     contiguous Watcher slab, so propagation scans ride one allocation
//     instead of 2N heap vectors. load() counts the rows every clause will
//     watch and lays each row out once with rebuild()'s headroom, so the
//     load leaves no garbage. Learnt clauses and watch moves then grow
//     rows by relocation; garbage_collect() (and compact_pools() before a
//     solve, when a pool has grown sparse) compacts back to garbage-free
//     CSR order. The slabs and the arena are GrowBuffers
//     (sat/grow_buffer.h), grown by realloc, so a growing buffer is never
//     resident twice.
//   * Binary clauses are implicit (Chu, Harwood & Stuckey, JSAT 2009; the
//     Lingeling/CaDiCaL layout): a binary clause is its two 4-byte
//     entries in a dedicated watch pool and nothing else — no arena
//     record. An entry is the other literal plus one bit saying whether
//     the watched literal comes first in the clause, so the clause order
//     survives. The pool is scanned before the long-clause rows with no
//     tag test, no arena access and no keep-compaction write-back; on the
//     paper's coloring encodings (almost all binary: one clause per edge
//     and color) most propagation never leaves this loop. A binary reason
//     is ReasonKind::Binary naming the other literal, and a binary
//     conflict carries both literals, so conflict analysis reads no
//     arena line for a binary clause either.
//   * garbage_collect() is MiniSat-style: live arena records move to a
//     fresh arena and every stored ref is remapped. There are no
//     tombstones — propagation never skips dead records, and watcher
//     lists physically shrink at every collection. Binary clauses are
//     never deleted (problem clauses stay, learnt binaries are core tier),
//     so a collection leaves the binary pool alone.
//   * PB terms live in one shared pool (pb_terms_); each PbData row holds
//     an offset/length into it plus the cached slack and the largest
//     coefficient. A row whose slack is at least its max coefficient can
//     neither conflict nor force a literal, so propagation skips it.
//   * PB occurrence lists use the same flat pool layout (pb_occs_); add_pb
//     between solves appends through the pool's growth path and
//     compact_pools() re-compacts the rows to CSR order at the next
//     solve() entry.
//
// The load path: every problem clause and PB row, from the constructor
// or between solves, enters through load_clause() or load_pb(). A clause
// is copied once into the reusable load_lits_ buffer, sorted, deduplicated
// and simplified against the level-0 assignment in place, then attached
// in that order — MiniSat's addClause_, with no heap allocation per
// clause. Each returns false once level-0 unsatisfiability is derived.
// load() skips the copy for a formula clause none of whose literals is
// assigned: the Formula already stores it sorted and deduplicated, so it
// is attached as it stands.

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literals.h"
#include "sat/clause_arena.h"
#include "sat/solver_engine.h"
#include "sat/watcher_pool.h"

namespace symcolor {

class PropEngine {
 public:
  /// Why a variable is assigned: an arena clause, a binary clause, a PB
  /// row, or nothing (a decision, an assumption or a level-0 unit).
  enum class ReasonKind : std::uint8_t { None, ClauseRef, PbRef, Binary };
  struct Reason {
    ReasonKind kind = ReasonKind::None;
    /// ClauseRef, pbs_ index, or for Binary the code of the clause's other
    /// literal (the one the implied literal's assignment came from).
    std::uint32_t index = kInvalidClauseRef;
    [[nodiscard]] bool valid() const noexcept {
      return kind != ReasonKind::None;
    }
  };
  /// A constraint named by value: the falsified one a conflict reports,
  /// or a reason read as a whole constraint (constraint_of()). Kinds and
  /// `index` are a Reason's, except that a Binary names both literals in
  /// clause order: `index` is the first literal's code, `second` the
  /// second's.
  struct Conflict {
    ReasonKind kind = ReasonKind::None;
    std::uint32_t index = kInvalidClauseRef;
    std::uint32_t second = 0;
    [[nodiscard]] bool valid() const noexcept {
      return kind != ReasonKind::None;
    }
  };

  /// Outcome of one propagation-count lookahead probe.
  struct ProbeResult {
    /// Propagation alone refuted the formula plus the probed prefix.
    bool refuted = false;
    /// Trail literals beyond the level-0 roots once every assumption was
    /// propagated (assumptions included): the hardness estimate — more
    /// forced means an easier subproblem.
    int forced = 0;
    /// Unassigned variables after root propagation, before any assumption
    /// (the denominator of the forced-fraction easiness cutoff).
    int free_vars = 0;
  };

  /// Size the assignment; init_pools() and load() follow.
  explicit PropEngine(const Formula& formula);

  // ---- the assignment ----
  // One byte per literal code, so the hot value(Lit) is one load with no
  // sign arithmetic; a variable's value is its positive literal's.
  [[nodiscard]] LBool value(Lit l) const noexcept {
    return lit_values_[static_cast<std::size_t>(l.code())];
  }
  [[nodiscard]] LBool value(Var v) const noexcept {
    return value(Lit::positive(v));
  }
  [[nodiscard]] int level(Var v) const noexcept {
    return vardata_[static_cast<std::size_t>(v)].level;
  }
  /// Meaningful only while `v` is assigned: backtrack() leaves the
  /// reasons of undone variables stale, so every reader (analysis, core
  /// extraction, locking, the collectors' remaps) looks only at assigned
  /// variables — trail literals, or a clause_locked() value test first.
  [[nodiscard]] Reason reason(Var v) const noexcept {
    return vardata_[static_cast<std::size_t>(v)].reason;
  }
  [[nodiscard]] int trail_pos(Var v) const noexcept {
    return vardata_[static_cast<std::size_t>(v)].trail_pos;
  }
  [[nodiscard]] const std::vector<Lit>& trail() const noexcept {
    return trail_;
  }
  /// Current decision level; 0 whenever no solve() is running.
  [[nodiscard]] int decision_level() const noexcept {
    return static_cast<int>(trail_lim_.size());
  }
  [[nodiscard]] int num_vars() const noexcept {
    return static_cast<int>(vardata_.size());
  }

  // ---- constraints ----
  /// The reason of `implied`'s assignment as a whole constraint. A binary
  /// reason lists `implied` first: its clause order is not stored, and no
  /// reader needs it (the other literal is false, so cutting planes keeps
  /// it whatever the order, and it resolves on `implied` by literal).
  [[nodiscard]] static Conflict constraint_of(Reason r, Lit implied) {
    if (r.kind == ReasonKind::Binary) {
      return {r.kind, static_cast<std::uint32_t>(implied.code()), r.index};
    }
    return {r.kind, r.index};
  }
  /// The constraint `c` names, read as `sum terms >= bound`: a clause is
  /// its literals with coefficient 1 and bound 1. for_each_term() calls
  /// visit(coeff, lit) per term until visit returns false (then false).
  [[nodiscard]] std::int64_t bound(Conflict c) const {
    return c.kind == ReasonKind::PbRef ? pbs_[c.index].bound : 1;
  }
  template <typename Visit>
  bool for_each_term(Conflict c, Visit&& visit) const {
    if (c.kind == ReasonKind::PbRef) {
      for (const PbTerm& t : pb_terms(pbs_[c.index])) {
        if (!visit(t.coeff, t.lit)) return false;
      }
      return true;
    }
    if (c.kind == ReasonKind::Binary) {
      const std::int64_t one = 1;
      return visit(one, Lit::from_code(static_cast<int>(c.index))) &&
             visit(one, Lit::from_code(static_cast<int>(c.second)));
    }
    const std::uint32_t* codes = arena_.lit_codes(c.index);
    for (int i = 0; i < arena_.size(c.index); ++i) {
      const Lit l = Lit::from_code(static_cast<int>(codes[i]));
      if (!visit(std::int64_t{1}, l)) return false;
    }
    return true;
  }

  /// Visit every literal of `implied`'s reason except `implied` itself,
  /// without materializing a vector (analyze and minimize are
  /// reason-iteration bound). `visit` returns false to abort; the call
  /// then returns false. A PB reason is weakened to a clause on the fly
  /// (the classic PBS scheme): only literals falsified strictly before
  /// `implied` — anything later would let analyze() chase implications
  /// forward — or all false literals for a conflict (implied == undef).
  template <typename Visit>
  bool for_each_reason_lit(Reason reason, Lit implied, Visit&& visit) const {
    if (reason.kind == ReasonKind::Binary) {
      return visit(Lit::from_code(static_cast<int>(reason.index)));
    }
    if (reason.kind == ReasonKind::ClauseRef) {
      const std::uint32_t* codes = arena_.lit_codes(reason.index);
      const int size = arena_.size(reason.index);
      for (int i = 0; i < size; ++i) {
        const Lit l = Lit::from_code(static_cast<int>(codes[i]));
        if (l != implied && !visit(l)) return false;
      }
      return true;
    }
    const int implied_pos = implied.valid() ? trail_pos(implied.var())
                                            : static_cast<int>(trail_.size());
    for (const PbTerm& t : pb_terms(pbs_[reason.index])) {
      if (t.lit == implied || value(t.lit) != LBool::False) continue;
      if (trail_pos(t.lit.var()) >= implied_pos) continue;
      if (!visit(t.lit)) return false;
    }
    return true;
  }
  /// for_each_reason_lit() over every literal of a conflict, in clause
  /// order for a clause.
  template <typename Visit>
  bool for_each_conflict_lit(Conflict c, Visit&& visit) const {
    if (c.kind == ReasonKind::Binary) {
      return visit(Lit::from_code(static_cast<int>(c.index))) &&
             visit(Lit::from_code(static_cast<int>(c.second)));
    }
    return for_each_reason_lit(Reason{c.kind, c.index}, kUndefLit, visit);
  }

  // ---- storage introspection (tests / benchmarks) ----
  /// Total watcher entries across all literals (binary + long pools).
  /// After a collection this is exactly 2 * live_clauses(): no tombstone
  /// watchers survive.
  [[nodiscard]] std::size_t total_watchers() const noexcept {
    return watches_.live_entries() + bin_watches_.live_entries();
  }
  /// Slab cells owned by the watcher pools, including relocation garbage.
  /// Equals total_watchers() right after a compaction.
  [[nodiscard]] std::size_t watcher_pool_slots() const noexcept {
    return watches_.slab_slots() + bin_watches_.slab_slots();
  }
  /// Same occupancy pair for the PB occurrence pool.
  [[nodiscard]] std::size_t total_pb_occs() const noexcept {
    return pb_occs_.live_entries();
  }
  [[nodiscard]] std::size_t pb_occ_pool_slots() const noexcept {
    return pb_occs_.slab_slots();
  }
  /// Clauses currently attached (problem + learned, binary + longer,
  /// excluding units).
  [[nodiscard]] std::int64_t live_clauses() const noexcept {
    return arena_.live_clauses() + binary_clauses_;
  }
  /// 32-bit words owned by the clause arena (clauses of three or more
  /// literals).
  [[nodiscard]] std::size_t arena_words() const noexcept {
    return arena_.words();
  }

 protected:
  /// A long clause's watch entry.
  struct Watcher {
    ClauseRef cref = kInvalidClauseRef;
    Lit blocker;
  };
  /// A binary clause's watch entry and its whole storage, one word: the
  /// other literal's code shifted left once, plus a low bit set when the
  /// watched literal is the clause's first.
  struct BinWatch {
    std::uint32_t bits = 0;
    [[nodiscard]] static BinWatch of(Lit other, bool watched_first) {
      return {(static_cast<std::uint32_t>(other.code()) << 1) |
              (watched_first ? 1u : 0u)};
    }
    [[nodiscard]] Lit other() const noexcept {
      return Lit::from_code(static_cast<int>(bits >> 1));
    }
    [[nodiscard]] bool watched_first() const noexcept {
      return (bits & 1u) != 0;
    }
  };
  /// One PB row: a view into the shared term pool plus cached slack.
  /// Learned rows (cutting-planes resolvents) carry the searcher's
  /// learnt-DB metadata too, so it can tier them like learnt clauses.
  struct PbData {
    std::uint32_t terms_begin = 0;  // offset into pb_terms_
    std::uint32_t terms_len = 0;
    std::int64_t bound = 0;
    std::int64_t slack = 0;      // sum of non-false coefficients minus bound
    std::int64_t max_coeff = 0;  // terms are sorted by descending coeff
    float activity = 0.0f;       // learned rows only
    std::uint8_t lbd = 0;        // 0 on problem rows
    std::uint8_t flags = 0;      // kPbLearnt | kPbUsed | kPbDeleted
  };
  static constexpr std::uint8_t kPbLearnt = 1u << 0;
  static constexpr std::uint8_t kPbUsed = 1u << 1;
  static constexpr std::uint8_t kPbDeleted = 1u << 2;
  struct PbOcc {
    std::uint32_t pb_index = 0;
    std::int64_t coeff = 0;
  };

  [[nodiscard]] std::span<const PbTerm> pb_terms(const PbData& pb) const {
    return {pb_terms_.data() + pb.terms_begin, pb.terms_len};
  }

  /// Size the watch and occurrence pools and reserve the trail.
  void init_pools();
  /// Load every constraint of `formula`; a formula refuted at level 0
  /// leaves ok_ false.
  void load(const Formula& formula);
  bool load_clause(std::span<const Lit> lits);
  bool load_pb(const PbConstraint& constraint);
  /// Attach a clause of two or more literals, watching its first two.
  /// A binary clause goes to the binary pool only and returns
  /// kInvalidClauseRef; a longer one returns its arena record.
  ClauseRef attach_clause(std::span<const Lit> lits, bool learnt);
  /// Append a PB row with its terms and occurrences, computing its slack
  /// under the current assignment. Terms must be sorted by descending
  /// coefficient.
  std::uint32_t attach_pb_row(std::span<const PbTerm> terms,
                              std::int64_t bound);
  /// Enqueue every literal row `index` forces under the current
  /// assignment; false (nothing enqueued) when the row conflicts.
  bool propagate_row(std::uint32_t index);

  void enqueue(Lit l, Reason reason) {
    assert(value(l) == LBool::Undef);
    const auto v = static_cast<std::size_t>(l.var());
    const auto fcode = static_cast<std::size_t>((~l).code());
    lit_values_[static_cast<std::size_t>(l.code())] = LBool::True;
    lit_values_[fcode] = LBool::False;
    vardata_[v] = {reason, decision_level(), static_cast<int>(trail_.size())};
    trail_.push_back(l);
    if (!in_pb_[fcode]) return;
    // PB slack bookkeeping: literal ~l just became false.
    for (const PbOcc& occ : pb_occs_.row(fcode)) {
      pbs_[occ.pb_index].slack -= occ.coeff;
    }
  }
  void new_decision_level() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }
  /// Unit and PB propagation to fixpoint; the first conflict found, or an
  /// invalid Conflict.
  Conflict propagate();

  /// Undo every assignment above `target_level` in one pass over the
  /// trail, restoring PB slack; `on_unassign(p)` runs for each undone
  /// literal p (the searcher's phase saving and heap re-insert, inlined).
  template <typename OnUnassign>
  void backtrack(int target_level, OnUnassign&& on_unassign) {
    if (decision_level() <= target_level) return;
    const int bound = trail_lim_[static_cast<std::size_t>(target_level)];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
      const Lit p = trail_[static_cast<std::size_t>(i)];
      const auto fcode = static_cast<std::size_t>((~p).code());
      if (in_pb_[fcode]) {
        // Restore PB slack for the literal that stops being false.
        for (const PbOcc& occ : pb_occs_.row(fcode)) {
          pbs_[occ.pb_index].slack += occ.coeff;
        }
      }
      on_unassign(p);
      lit_values_[static_cast<std::size_t>(p.code())] = LBool::Undef;
      lit_values_[fcode] = LBool::Undef;
    }
    trail_.resize(static_cast<std::size_t>(bound));
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = bound;
  }

  /// Compact the arena, dropping deleted records, and remap every stored
  /// ClauseRef (long-clause watch lists, trail reasons) through the
  /// forwarding refs. Binary clauses hold no ClauseRef and are never
  /// deleted, so their pool is left as it is.
  /// Pass p of three moves the records with rank(cref) <= p, so each rank
  /// (0..2) lands in one contiguous segment: the hot rank stays packed
  /// and cache-resident while the churny tail is swept in and out behind
  /// it. relocate() is idempotent per record and keeps the old header's
  /// bits, so later passes still rank records and step over moved ones.
  template <typename Rank>
  void garbage_collect(Rank&& rank) {
    ClauseArena to;
    to.reserve(arena_.words());
    for (int pass = 0; pass < 3; ++pass) {
      for (ClauseRef cr = 0; cr != arena_.end_ref(); cr = arena_.next(cr)) {
        if (arena_.deleted(cr) || arena_.relocated(cr)) continue;
        if (rank(cr) <= pass) arena_.relocate(cr, &to);
      }
    }
    // One rebuild both drops dead entries and restores the garbage-free
    // CSR layout (rows in literal order, zero slack).
    watches_.rebuild([&](std::size_t, Watcher& w) {
      if (arena_.deleted(w.cref)) return false;
      w.cref = arena_.forward(w.cref);
      return true;
    });
    for (const Lit l : trail_) {
      Reason& r = vardata_[static_cast<std::size_t>(l.var())].reason;
      if (r.kind == ReasonKind::ClauseRef) r.index = arena_.forward(r.index);
    }
    arena_ = std::move(to);
    ++stats_.arena_collections;
  }
  /// Drop the PB rows flagged kPbDeleted: compact the rows, the term pool
  /// and the occurrence lists, and remap trail PbRef reasons — the PB
  /// analog of garbage_collect(). Cached slacks move with their rows.
  void compact_pbs();
  /// The clause serves as the reason of its first literal's assignment.
  [[nodiscard]] bool clause_locked(ClauseRef cref) const;
  /// Re-compact pools that add_clause/add_pb grew since the last solve.
  void compact_pools();

  /// CdclSolver::probe_assumptions() without the final backtrack(0): the
  /// caller unwinds the trail.
  ProbeResult probe(std::span<const Lit> assumptions);

  // ---- state ----
  /// Every layer's counters; the engine's own are propagations,
  /// pb_short_circuits and arena_collections.
  SolverStats stats_;
  bool ok_ = true;  // false once level-0 conflict derived

  ClauseArena arena_;
  FlatOccPool<Watcher> watches_;       // long clauses, by lit code
  FlatOccPool<BinWatch> bin_watches_;  // binary clauses, by lit code
  std::int64_t binary_clauses_ = 0;    // problem + learnt
  std::int64_t learnt_binaries_ = 0;
  std::vector<PbData> pbs_;
  std::vector<PbTerm> pb_terms_;  // shared flat term pool
  FlatOccPool<PbOcc> pb_occs_;    // rows by literal code
  bool pb_occs_dirty_ = false;    // set by attach_pb_row()
  // By literal code: 1 once the literal occurs in a PB row (set by
  // attach_pb_row(), never cleared), so the assignment path skips the
  // nearly always empty occurrence rows with one byte load.
  std::vector<std::uint8_t> in_pb_;

  std::vector<LBool> lit_values_;  // by literal code
  struct VarData {
    Reason reason;
    int level = 0;
    int trail_pos = -1;
  };
  std::vector<VarData> vardata_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  int qhead_ = 0;

 private:
  Conflict propagate_pb_for(Lit falsified);
  /// load_clause on the literals already in load_lits_.
  bool load_buffered_clause();
  std::vector<Lit> load_lits_;  // load path scratch
};

}  // namespace symcolor
