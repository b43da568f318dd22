// SessionManager: shards concurrent client sessions across DiscEngine
// instances.
//
// DiscEngine is single-session by design (engine/engine.h): its solution
// cache, color state, and zoom preconditions assume one caller. The manager
// provides the server's concurrency model on top of that invariant:
//
//  * every connection leases an engine for *exclusive* use — two sessions
//    never share a live engine, so the tree's color state cannot race;
//  * engines are pooled by (dataset, metric, build strategy): when a lease
//    ends the engine goes idle instead of being destroyed, and the next
//    OPEN with the same key reuses it after DiscEngine::NewSession() — the
//    index, the per-radius neighborhood counts, and the solution cache stay
//    warm, so a repeated DIVERSIFY at the same radius costs zero node
//    accesses even across sessions;
//  * concurrent OPENs of the same key each get their own engine (the pool
//    may hold several per key), so sharding never serializes clients;
//  * idle engines beyond `max_idle_engines` are evicted least-recently-
//    released first (an index plus caches is the unit of memory here).
//
// Thread safety: Acquire/Release are safe from any thread. Engine
// construction (dataset load + index build) runs outside the manager lock,
// so a slow OPEN never blocks other sessions.

#ifndef DISC_SERVER_SESSION_MANAGER_H_
#define DISC_SERVER_SESSION_MANAGER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/config.h"
#include "engine/engine.h"
#include "util/status.h"

namespace disc {

/// Canonical pool key for an EngineConfig: dataset identity (source plus
/// the generator knobs or CSV path), metric, and build strategy. Two
/// configs with equal, non-empty keys produce interchangeable engines.
/// Returns "" for configs with no canonical identity — kProvided datasets
/// (two provided datasets are not interchangeable just because their
/// metric matches) — and such engines are never pooled: the manager
/// destroys them when their lease ends. Note the key deliberately covers
/// only `MTreeOptions::build.strategy`; configs that hand-tune other tree
/// knobs should use their own manager (the wire protocol cannot produce
/// them).
std::string EnginePoolKey(const EngineConfig& config);

class SessionManager;

/// An exclusive engine lease. Movable, not copyable; returns the engine to
/// the manager's idle pool on destruction (RAII) or explicit Release().
class EngineLease {
 public:
  EngineLease() = default;
  EngineLease(EngineLease&& other) noexcept { *this = std::move(other); }
  EngineLease& operator=(EngineLease&& other) noexcept;
  ~EngineLease() { Release(); }

  EngineLease(const EngineLease&) = delete;
  EngineLease& operator=(const EngineLease&) = delete;

  bool valid() const { return engine_ != nullptr; }
  DiscEngine& engine() { return *engine_; }
  const std::string& key() const { return key_; }
  /// True when Acquire reused a pooled engine (warm caches).
  bool reused() const { return reused_; }

  /// Returns the engine to the pool now. No-op on an empty lease.
  void Release();

 private:
  friend class SessionManager;
  EngineLease(SessionManager* manager, std::string key,
              std::unique_ptr<DiscEngine> engine, bool reused)
      : manager_(manager),
        key_(std::move(key)),
        engine_(std::move(engine)),
        reused_(reused) {}

  SessionManager* manager_ = nullptr;
  std::string key_;
  std::unique_ptr<DiscEngine> engine_;
  bool reused_ = false;
};

/// The outcome of one coalesced computation: the serialized response line
/// the leader produced (fanned out to every waiter verbatim, so coalesced
/// responses are byte-identical to the leader's direct engine call) plus
/// the leader's exported session state. `capsule` is null when the
/// computation failed — identical requests get the identical error line,
/// but there is no session state to adopt.
struct FlightOutcome {
  std::string response;
  std::shared_ptr<DiscEngine::SessionCapsule> capsule;
  /// Radius-aware memoization metadata (§5.2 serving-side adaptation):
  /// when `adapt_family` is non-empty, this outcome is a successful *pure*
  /// DIVERSIFY (no zoom applied) of a zoomable DisC-family solution, and
  /// its capsule may seed an adapted answer for a request in the same
  /// family at a *different* radius. The family string covers pool key,
  /// algorithm, and pruning — everything but the radius — so two outcomes
  /// in one family differ only by the radius recorded here. Left empty for
  /// errors, ZOOM outcomes, adapted outcomes, and covering-only
  /// algorithms.
  std::string adapt_family;
  double radius = 0.0;
};

/// Invoked exactly once per follower, on the leader's thread, after the
/// computation completes (outside the manager lock — adopting a capsule is
/// an O(n) engine call).
using FlightWaiter = std::function<void(const FlightOutcome&)>;

/// What JoinFlight decided for the caller.
enum class FlightJoin {
  /// No flight existed: the caller runs the computation and MUST call
  /// FinishFlight (even on failure), or followers would wait forever.
  kLeader,
  /// A flight is in progress; the waiter was registered.
  kFollower,
  /// A completed flight's outcome was memoized; it was copied out and the
  /// waiter dropped.
  kCached,
};

/// Counters for observability and tests (a consistent snapshot).
struct SessionManagerStats {
  size_t leases_acquired = 0;
  size_t leases_released = 0;
  size_t pool_hits = 0;
  size_t engines_created = 0;
  size_t engines_evicted = 0;
  size_t idle_engines = 0;
  /// Single-flight table: computations led, waiters attached to an
  /// in-progress flight, requests served from the memoized-outcome cache,
  /// and the cache's current size.
  size_t flights_led = 0;
  size_t flights_coalesced = 0;
  size_t flights_memoized = 0;
  size_t cached_results = 0;
  /// Requests served by adapting a memoized outcome at a different radius
  /// (FindAdaptableSeed hits).
  size_t flights_adapted = 0;
  /// Requests that registered as adapt-followers of an *in-flight* leader
  /// in the same family at a different radius (JoinAdaptFollower hits):
  /// proactive §5.2 adaptation — the queued flight adopts the leader's
  /// capsule on completion instead of recomputing cold.
  size_t flights_adapt_followed = 0;
};

/// A §5.2 adaptation-seed candidate as NearestSeed ranks it: its radius
/// and its recency (larger = newer).
struct SeedRank {
  double radius = 0.0;
  uint64_t recency = 0;
};

/// The one seed-selection rule for §5.2 radius adaptation, shared by every
/// source of seeds — the memo (FindAdaptableSeed), in-flight leaders
/// (JoinAdaptFollower) and a batch's retained anchors: among the
/// candidates `rank` admits (it maps each element to a SeedRank, or to
/// nullopt to skip it), the radius closest to `radius` wins, the newest on
/// ties, and an equal radius never qualifies — equal-radius reuse belongs
/// to the exact single-flight path. Returns `end` when nothing qualifies.
template <typename It, typename Rank>
It NearestSeed(It begin, It end, double radius, Rank rank) {
  It best = end;
  SeedRank best_rank;
  for (It it = begin; it != end; ++it) {
    const std::optional<SeedRank> candidate = rank(*it);
    if (!candidate.has_value() || candidate->radius == radius) continue;
    const double delta = std::abs(candidate->radius - radius);
    const double best_delta = std::abs(best_rank.radius - radius);
    if (best == end || delta < best_delta ||
        (delta == best_delta && candidate->recency > best_rank.recency)) {
      best = it;
      best_rank = *candidate;
    }
  }
  return best;
}

class SessionManager {
 public:
  /// `max_idle_engines` bounds the idle pool (leased engines are not
  /// counted); 0 disables pooling entirely. `max_cached_results` bounds the
  /// memoized-outcome cache of completed flights (LRU; 0 disables
  /// memoization).
  explicit SessionManager(size_t max_idle_engines,
                          size_t max_cached_results = 32)
      : max_idle_engines_(max_idle_engines),
        max_cached_results_(max_cached_results) {}

  /// Leases an engine for `config`: a pooled idle engine with the same key
  /// (restarted via DiscEngine::NewSession) when available, otherwise a
  /// freshly built one. Fails with DiscEngine::Create's error.
  Result<EngineLease> Acquire(const EngineConfig& config);

  /// Warm-up: builds one engine per config *concurrently* (a temporary
  /// util/parallel.h pool of min(`threads`, configs) workers; 0 means one
  /// per hardware thread) and parks them in the idle pool, so the first
  /// OPEN of a hot dataset leases a warm engine instead of paying dataset
  /// load + index build — and a list of hot datasets warms in the time of
  /// the slowest build rather than the sum. Unpoolable configs (empty
  /// EnginePoolKey) are skipped. Returns the first build error (engines
  /// that did build are kept either way); idle-pool eviction applies as
  /// usual, so warming more configs than `max_idle_engines` keeps only the
  /// most recently finished.
  Status Prewarm(const std::vector<EngineConfig>& configs, size_t threads);

  /// Single-flight table (the coalescing seam): registers interest in the
  /// computation identified by `key` (an opaque string covering pool key,
  /// command, canonical parameters, and — for ZOOM — the session
  /// fingerprint; equal keys MUST imply byte-identical responses).
  /// Returns kLeader when the caller should run the computation, kFollower
  /// when `waiter` was attached to an in-progress flight, or kCached when a
  /// memoized outcome was copied into `*cached` (waiter dropped).
  ///
  /// A caller that becomes leader of a DIVERSIFY whose outcome could seed
  /// §5.2 radius adaptation passes the plan's `adapt_family` and radius:
  /// the in-progress flight is then *advertised* to JoinAdaptFollower, so a
  /// compatible request at another radius can ride this computation instead
  /// of starting its own. Followers' family arguments are ignored (the
  /// leader already advertised).
  FlightJoin JoinFlight(const std::string& key, FlightWaiter waiter,
                        FlightOutcome* cached,
                        const std::string& adapt_family = "",
                        double radius = 0.0);

  /// Completes the flight `key`: removes the flight and (when `memoize`)
  /// inserts the outcome into the LRU memo under one lock, then invokes
  /// every registered waiter outside it. Leaders must call this exactly
  /// once, on success or failure.
  void FinishFlight(const std::string& key, FlightOutcome outcome,
                    bool memoize);

  /// Radius-aware memo lookup (the §5.2 widening of coalescing beyond
  /// byte-identical keys): finds the memoized outcome in `family` whose
  /// radius is closest to `radius` — but never equal; equal-radius reuse is
  /// the exact single-flight/memo path — preferring the most recently
  /// finished or touched on ties (NearestSeed). On a hit, copies the
  /// outcome into `*seed`, reports its radius in `*seed_radius`, touches
  /// the LRU entry, and counts `flights_adapted`. The caller adopts the
  /// seed's capsule and runs the engine's zoom adaptation toward its own
  /// radius (DiscEngine::AdaptFrom).
  bool FindAdaptableSeed(const std::string& family, double radius,
                         FlightOutcome* seed, double* seed_radius);

  /// Proactive §5.2 adaptation across requests: when a flight advertising
  /// `family` (see JoinFlight) is in progress at a radius other than
  /// `radius`, attaches `waiter` to it and returns true — the caller then
  /// does NOT run its own computation; on the leader's completion the
  /// waiter receives the leader's outcome and (when it is a seedable cold
  /// solve: non-empty outcome.adapt_family, non-null capsule) adapts its
  /// capsule to the caller's radius via DiscEngine::AdaptFrom, falling back
  /// to a cold computation otherwise. Among several in-flight candidates
  /// the closest radius wins, most recently led on ties (NearestSeed).
  /// Counts flights_adapt_followed.
  /// Returns false (waiter dropped) when no compatible flight is in
  /// progress.
  bool JoinAdaptFollower(const std::string& family, double radius,
                         FlightWaiter waiter);

  /// Withdraws the flight `key` from JoinAdaptFollower matching. A leader
  /// calls this the moment it decides its outcome will NOT be a seedable
  /// cold solve — it found a seed itself (memo or in-flight) and will
  /// produce an *adapted* outcome — so a would-be adapt-follower prefers a
  /// genuinely cold flight (or the memo) over chaining onto an adapted one
  /// and falling back cold. No-op when the flight already finished.
  void RetractAdaptFlight(const std::string& key);

  SessionManagerStats stats() const;

 private:
  friend class EngineLease;

  struct IdleEngine {
    std::string key;
    std::unique_ptr<DiscEngine> engine;
  };

  /// Called by EngineLease: counts the release and returns the engine to
  /// the idle pool. Prewarm parks engines via ReturnToPool directly (those
  /// engines were never leased, so parking them is not a release).
  void ReleaseLease(std::string key, std::unique_ptr<DiscEngine> engine);

  /// Returns the engine to the idle pool, evicting the least-recently-
  /// released engine beyond the cap.
  void ReturnToPool(std::string key, std::unique_ptr<DiscEngine> engine);

  const size_t max_idle_engines_;
  const size_t max_cached_results_;

  struct Flight {
    std::vector<FlightWaiter> waiters;
    /// Advertised by the leader (JoinFlight's trailing arguments): the
    /// radius-compatibility family and radius of a DIVERSIFY whose outcome
    /// may seed adaptation, so JoinAdaptFollower can find this flight while
    /// it is still in the air. Empty family = not adaptable-from.
    std::string adapt_family;
    double radius = 0.0;
    /// Lead order from next_seq_: NearestSeed's recency, so distance ties
    /// go to the most recently led flight.
    uint64_t seq = 0;
  };
  struct CachedResult {
    std::string key;
    FlightOutcome outcome;
    /// Restamped from next_seq_ on every LRU touch: NearestSeed's recency,
    /// so distance ties go to the most recently finished or touched.
    uint64_t seq = 0;
  };

  /// Moves a memo entry to the LRU front and restamps its recency.
  /// Requires mutex_.
  void TouchResult(std::list<CachedResult>::iterator it);

  mutable std::mutex mutex_;
  /// Most recently released at the front; evict from the back.
  std::list<IdleEngine> idle_;
  /// In-progress computations keyed by flight key.
  std::unordered_map<std::string, Flight> flights_;
  /// Recency stamps for flights and memo entries alike.
  uint64_t next_seq_ = 0;
  /// Completed-flight outcomes, most recently finished at the front.
  std::list<CachedResult> results_;
  SessionManagerStats stats_;
};

}  // namespace disc

#endif  // DISC_SERVER_SESSION_MANAGER_H_
