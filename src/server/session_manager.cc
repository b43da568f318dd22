#include "server/session_manager.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "metric/metric.h"
#include "mtree/mtree.h"
#include "util/parallel.h"

namespace disc {

std::string EnginePoolKey(const EngineConfig& config) {
  const DatasetSpec& spec = config.dataset;
  std::string key = DatasetSourceToString(spec.source);
  switch (spec.source) {
    case DatasetSpec::Source::kUniform:
    case DatasetSpec::Source::kClustered:
      key += ":n=" + std::to_string(spec.n) + ",dim=" +
             std::to_string(spec.dim) + ",seed=" + std::to_string(spec.seed);
      break;
    case DatasetSpec::Source::kCsv:
      key += ":" + spec.csv_path;
      break;
    case DatasetSpec::Source::kProvided:
      // A caller-materialized dataset has no canonical identity the pool
      // could match on; never reuse an engine built over one.
      return "";
    default:
      break;
  }
  key += "|";
  key += MetricKindToString(config.metric);
  key += "|";
  key += BuildStrategyToString(config.tree.build.strategy);
  // The backend is part of the identity only off the default, so every
  // pre-backend pool key is unchanged. Approximate engines must never be
  // matched with exact ones (their memoized solutions differ), hence the
  // full knob-carrying cache key, not just the kind name.
  if (config.neighbor.kind != NeighborBackendKind::kExact) {
    key += "|";
    key += NeighborBackendCacheKey(config.neighbor);
  }
  return key;
}

EngineLease& EngineLease::operator=(EngineLease&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    key_ = std::move(other.key_);
    engine_ = std::move(other.engine_);
    reused_ = other.reused_;
    other.manager_ = nullptr;
    other.engine_ = nullptr;
    other.reused_ = false;
  }
  return *this;
}

void EngineLease::Release() {
  if (engine_ != nullptr && manager_ != nullptr) {
    manager_->ReleaseLease(std::move(key_), std::move(engine_));
  }
  engine_ = nullptr;
  manager_ = nullptr;
}

Result<EngineLease> SessionManager::Acquire(const EngineConfig& config) {
  std::string key = EnginePoolKey(config);
  std::unique_ptr<DiscEngine> pooled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = idle_.begin(); !key.empty() && it != idle_.end(); ++it) {
      if (it->key == key) {
        pooled = std::move(it->engine);
        idle_.erase(it);
        ++stats_.pool_hits;
        stats_.idle_engines = idle_.size();
        break;
      }
    }
    // Counted only when a lease is actually handed out: a refused OPEN
    // (bad config, guardrail cap) must leave the acquire/release balance
    // intact — tests assert leases_released == leases_acquired.
    if (pooled != nullptr) ++stats_.leases_acquired;
  }
  if (pooled != nullptr) {
    // NewSession (an O(n) color reset) runs outside the manager-wide
    // critical section; the engine is already exclusively ours.
    pooled->NewSession();
    return EngineLease(this, std::move(key), std::move(pooled),
                       /*reused=*/true);
  }

  // Miss: build a fresh engine outside the lock (dataset load + index
  // build can take seconds and must not serialize other sessions).
  DISC_ASSIGN_OR_RETURN(std::unique_ptr<DiscEngine> engine,
                        DiscEngine::Create(config));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.engines_created;
    ++stats_.leases_acquired;
  }
  return EngineLease(this, std::move(key), std::move(engine),
                     /*reused=*/false);
}

Status SessionManager::Prewarm(const std::vector<EngineConfig>& configs,
                               size_t threads) {
  if (configs.empty()) return Status::OK();
  // One engine build per task; every build runs on its own worker, so a
  // list of hot datasets warms in max(build time), not sum. Each slot is
  // written by exactly one task — results are collected after the pool
  // joins (no locking needed). Engines with threads > 1 additionally
  // parallelize their own bulk load on their own internal pools; that
  // nesting is safe because each engine's pool is a separate instance from
  // this prewarm pool (ThreadPool::Run only serializes per pool), and
  // harmless to determinism because the built tree is byte-identical at
  // any thread count (MTree::BulkLoad).
  std::vector<std::optional<Result<std::unique_ptr<DiscEngine>>>> built(
      configs.size());
  const size_t resolved = threads == 0 ? DefaultThreads() : threads;
  ThreadPool pool(std::min(resolved, configs.size()));
  pool.Run(configs.size(), [&](size_t i) {
    if (EnginePoolKey(configs[i]).empty()) return;  // unpoolable: skip
    built[i].emplace(DiscEngine::Create(configs[i]));
  });

  Status first_error = Status::OK();
  for (size_t i = 0; i < configs.size(); ++i) {
    if (!built[i].has_value()) continue;  // unpoolable, skipped above
    if (!built[i]->ok()) {
      if (first_error.ok()) first_error = built[i]->status();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.engines_created;
    }
    ReturnToPool(EnginePoolKey(configs[i]), std::move(*built[i]).value());
  }
  return first_error;
}

FlightJoin SessionManager::JoinFlight(const std::string& key,
                                      FlightWaiter waiter,
                                      FlightOutcome* cached,
                                      const std::string& adapt_family,
                                      double radius) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = results_.begin(); it != results_.end(); ++it) {
    if (it->key == key) {
      *cached = it->outcome;
      TouchResult(it);
      ++stats_.flights_memoized;
      return FlightJoin::kCached;
    }
  }
  auto [it, inserted] = flights_.try_emplace(key);
  if (inserted) {
    // Advertise the in-progress computation to JoinAdaptFollower: a
    // compatible request at another radius can ride it instead of leading
    // its own cold solve.
    it->second.adapt_family = adapt_family;
    it->second.radius = radius;
    it->second.seq = next_seq_++;
    ++stats_.flights_led;
    return FlightJoin::kLeader;
  }
  it->second.waiters.push_back(std::move(waiter));
  ++stats_.flights_coalesced;
  return FlightJoin::kFollower;
}

bool SessionManager::JoinAdaptFollower(const std::string& family,
                                       double radius, FlightWaiter waiter) {
  if (family.empty()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  // Equal-radius flights coalesce through the exact flight key (or, off by
  // a non-family knob like quality, must not pretend to zoom to the same
  // radius); NearestSeed never picks them.
  auto best = NearestSeed(
      flights_.begin(), flights_.end(), radius,
      [&](const auto& entry) -> std::optional<SeedRank> {
        const Flight& flight = entry.second;
        if (flight.adapt_family != family) return std::nullopt;
        return SeedRank{flight.radius, flight.seq};
      });
  if (best == flights_.end()) return false;
  best->second.waiters.push_back(std::move(waiter));
  ++stats_.flights_adapt_followed;
  return true;
}

void SessionManager::RetractAdaptFlight(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = flights_.find(key);
  if (it != flights_.end()) it->second.adapt_family.clear();
}

void SessionManager::FinishFlight(const std::string& key,
                                  FlightOutcome outcome, bool memoize) {
  std::vector<FlightWaiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      waiters = std::move(it->second.waiters);
      flights_.erase(it);
    }
    if (memoize && max_cached_results_ > 0) {
      // kCached is only returned for keys with no in-progress flight, so a
      // duplicate entry cannot arise from racing leaders of the same key —
      // but be defensive and keep at most one outcome per key.
      for (auto rit = results_.begin(); rit != results_.end(); ++rit) {
        if (rit->key == key) {
          results_.erase(rit);
          break;
        }
      }
      results_.push_front(CachedResult{key, outcome, next_seq_++});
      if (results_.size() > max_cached_results_) results_.pop_back();
      stats_.cached_results = results_.size();
    }
  }
  // Waiter callbacks adopt session capsules (O(n) engine work) and write
  // responses; never run them under the manager lock.
  for (FlightWaiter& waiter : waiters) waiter(outcome);
}

bool SessionManager::FindAdaptableSeed(const std::string& family,
                                       double radius, FlightOutcome* seed,
                                       double* seed_radius) {
  if (family.empty()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto best = NearestSeed(
      results_.begin(), results_.end(), radius,
      [&](const CachedResult& entry) -> std::optional<SeedRank> {
        const FlightOutcome& outcome = entry.outcome;
        if (outcome.adapt_family != family || outcome.capsule == nullptr) {
          return std::nullopt;
        }
        return SeedRank{outcome.radius, entry.seq};
      });
  if (best == results_.end()) return false;
  *seed = best->outcome;
  *seed_radius = best->outcome.radius;
  TouchResult(best);
  ++stats_.flights_adapted;
  return true;
}

void SessionManager::TouchResult(std::list<CachedResult>::iterator it) {
  it->seq = next_seq_++;
  results_.splice(results_.begin(), results_, it);
}

void SessionManager::ReleaseLease(std::string key,
                                  std::unique_ptr<DiscEngine> engine) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.leases_released;
  }
  ReturnToPool(std::move(key), std::move(engine));
}

void SessionManager::ReturnToPool(std::string key,
                                  std::unique_ptr<DiscEngine> engine) {
  std::unique_ptr<DiscEngine> evicted;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_idle_engines_ == 0 || key.empty()) {  // empty key: unpoolable
      stats_.idle_engines = idle_.size();
      ++stats_.engines_evicted;
      evicted = std::move(engine);
    } else {
      idle_.push_front(IdleEngine{std::move(key), std::move(engine)});
      if (idle_.size() > max_idle_engines_) {
        evicted = std::move(idle_.back().engine);
        idle_.pop_back();
        ++stats_.engines_evicted;
      }
      stats_.idle_engines = idle_.size();
    }
  }
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace disc
