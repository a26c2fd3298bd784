#include "sat/solver_engine.h"

namespace symcolor {

bool ClauseExchange::export_clause(int worker, std::span<const Lit> lits,
                                   int lbd) {
  Shard& shard = shard_for(worker);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  // The sequence number is claimed INSIDE the shard's critical section:
  // an importer that later observes next_seq_ >= seq and locks this shard
  // is therefore guaranteed to see the append below (see the class
  // comment for the full argument).
  const std::size_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
  if (seq >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The exporter already filtered on its own glue cap; the learn-time LBD
  // rides along so every importer can re-apply its own admission caps.
  shard.entries.push_back({worker, seq, {Clause(lits.begin(), lits.end()), lbd}});
  return true;
}

void ClauseExchange::import_clauses(int worker, std::size_t* cursor,
                                    std::vector<SharedClause>* out) {
  const std::size_t horizon =
      std::min(next_seq_.load(std::memory_order_acquire), capacity_);
  if (*cursor >= horizon) return;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = std::lower_bound(
        shard.entries.begin(), shard.entries.end(), *cursor,
        [](const Entry& e, std::size_t c) { return e.seq < c; });
    for (; it != shard.entries.end() && it->seq < horizon; ++it) {
      if (it->worker == worker) continue;  // own export
      out->push_back(it->clause);
    }
  }
  *cursor = horizon;
}

bool ClauseExchange::export_pb(int worker, std::span<const PbTerm> terms,
                               std::int64_t degree, int lbd) {
  Shard& shard = shard_for(worker);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const std::size_t seq =
      next_pb_seq_.fetch_add(1, std::memory_order_acq_rel);
  if (seq >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.pb_entries.push_back(
      {worker, seq,
       {std::vector<PbTerm>(terms.begin(), terms.end()), degree, lbd}});
  return true;
}

void ClauseExchange::import_pbs(int worker, std::size_t* cursor,
                                std::vector<SharedPb>* out) {
  const std::size_t horizon =
      std::min(next_pb_seq_.load(std::memory_order_acquire), capacity_);
  if (*cursor >= horizon) return;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = std::lower_bound(
        shard.pb_entries.begin(), shard.pb_entries.end(), *cursor,
        [](const PbEntry& e, std::size_t c) { return e.seq < c; });
    for (; it != shard.pb_entries.end() && it->seq < horizon; ++it) {
      if (it->worker == worker) continue;  // own export
      out->push_back(it->pb);
    }
  }
  *cursor = horizon;
}

std::size_t ClauseExchange::exported() const {
  return std::min(next_seq_.load(std::memory_order_acquire), capacity_);
}

std::size_t ClauseExchange::exported_pbs() const {
  return std::min(next_pb_seq_.load(std::memory_order_acquire), capacity_);
}

std::size_t ClauseExchange::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

}  // namespace symcolor
