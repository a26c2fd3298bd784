#include "service/engine_cache.h"

#include <utility>

#include "cnf/formula.h"
#include "sat/parallel_solver.h"

namespace symcolor {

std::unique_ptr<SolverEngine> EngineCache::acquire(const std::string& key,
                                                   const Formula& formula,
                                                   const SolverConfig& config) {
  // Residents never carry a fault spec: a request's injected fault must
  // only ever be armed on that request's exclusive clone.
  SolverConfig master_config = config;
  master_config.fault_injection = FaultInjection{};

  if (capacity_ == 0) {
    return make_solver_engine(formula, master_config);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  ++tick_;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    it->second.last_used = tick_;
    return it->second.master->clone();
  }
  ++misses_;

  // Build the master outside the lock: construction can be expensive and
  // must not serialize requests for OTHER keys behind it. A racing build
  // of the same key wastes one construction; last writer wins.
  lock.unlock();
  std::unique_ptr<SolverEngine> master =
      make_solver_engine(formula, master_config);
  // Admission-time inprocessing: one round on the resident master (per
  // the request's inprocess mode; no-op when Off) so every warm-started
  // session — this request's clone included — inherits the shrunk
  // formula and, under Full, the substitution/reconstruction state,
  // instead of each clone re-deriving the same simplification.
  master->inprocess();
  std::unique_ptr<SolverEngine> result = master->clone();
  lock.lock();

  if (entries_.size() >= capacity_) {
    auto victim = entries_.begin();
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      if (e->second.last_used < victim->second.last_used) victim = e;
    }
    entries_.erase(victim);
  }
  entries_[key] = Entry{std::move(master), tick_};
  return result;
}

void EngineCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::size_t EngineCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::int64_t EngineCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t EngineCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace symcolor
