// Per-verb execution shared by the event loop and the batch executor.
//
// The event loop needs the pieces of a request individually so it can
// thread the single-flight table between them: DispatchFastPath answers
// everything that needs no engine job, PlanCompute derives a request's
// coalescing key *before* any engine work, and LeadFlight / AdoptOutcome /
// SeedFromMemo are the coalescing steps a worker or a flight waiter runs.
// The batch planner (server/batch.h) composes the same functions, which is
// what keeps a coalesced, adapted or batched response byte-identical to a
// plain computation of the same request.

#ifndef DISC_SERVER_HANDLERS_H_
#define DISC_SERVER_HANDLERS_H_

#include <cstddef>
#include <exception>
#include <memory>
#include <string>

#include "server/protocol.h"
#include "server/session_manager.h"

namespace disc {

/// Dependencies a verb handler needs, independent of transport.
struct CommandContext {
  SessionManager* manager = nullptr;
  /// ServerOptions::engine_threads, applied to every engine an OPEN builds
  /// (the knob is the operator's, not the client's: it changes wall time
  /// only, so it stays out of the wire vocabulary and the pool key).
  size_t engine_threads = 0;
  /// ServerOptions::default_backend: the neighbor backend applied when the
  /// client's OPEN carries no backend= key. Unlike engine_threads this
  /// changes results, so it IS in the wire vocabulary and the pool key.
  NeighborBackendKind default_backend = NeighborBackendKind::kExact;
  /// ServerOptions::max_exact_points, stamped onto every OPEN-built config:
  /// exact-family backends over larger datasets are refused with
  /// InvalidArgument instead of risking an O(n^2) scan or an oversized
  /// index taking the daemon down. 0 = unlimited.
  size_t max_exact_points = 0;
};

/// OPEN: decodes, applies the operator thread knob, acquires a lease. On
/// success installs the lease into `*lease` and returns the OPEN response
/// line; on failure returns the error line and leaves `*lease` untouched.
/// The caller is responsible for the already-open precondition.
std::string ExecuteOpen(const CommandContext& ctx, const Request& request,
                        EngineLease* lease);

/// A decoded DIVERSIFY or ZOOM plus its single-flight identity.
struct ComputePlan {
  Verb verb = Verb::kDiversify;
  DiversifyRequest diversify;
  ZoomRequest zoom;
  /// Canonical coalescing key: pool key + verb + canonical parameters
  /// (+ the session fingerprint for ZOOM, whose result depends on the
  /// state the session is in). Equal keys imply interchangeable response
  /// lines. Empty when the request must not be coalesced: an unpoolable
  /// engine, a DIVERSIFY this engine can answer from its own solution
  /// cache (kept local so from_cache stays honest), or a ZOOM with no
  /// zoomable session to fingerprint. Requests that allow adaptation get a
  /// distinct key suffix — an adapted response line differs from a cold
  /// one, so the two populations must never share a flight.
  std::string flight_key;
  /// True when the client allowed §5.2 radius adaptation (DIVERSIFY
  /// adapt=true) and this request is eligible (coalescable, DisC-family).
  bool adapt = false;
  /// The request's radius-compatibility family: flight key minus radius
  /// (pool key + algorithm + pruning; quality excluded — it changes the
  /// response line but not the session state a seed capsule carries, and
  /// RunCompute re-applies the request's own quality flag). Non-empty for
  /// every coalescable DisC-family DIVERSIFY — it marks the outcome as a
  /// future adaptation seed even when this client did not ask to adapt.
  std::string adapt_family;
  /// Filled when an adaptable outcome exists (SeedFromMemo, an in-flight
  /// family leader, or a batch anchor): RunCompute then adopts the capsule
  /// and zooms to the request radius (DiscEngine::AdaptFrom) instead of
  /// computing cold.
  std::shared_ptr<DiscEngine::SessionCapsule> seed;
  double seed_radius = 0.0;
};

/// Decodes a DIVERSIFY/ZOOM request and derives its flight key against the
/// session `lease` currently holds. Fails with the decoder's error. The
/// caller is responsible for the session-open precondition.
Result<ComputePlan> PlanCompute(const Request& request, EngineLease& lease);

/// What a computation produced: the full response line (success or error)
/// and whether the engine call succeeded — when true, the engine's session
/// now encodes the result, so LeadFlight can export it.
struct ComputeResult {
  std::string response;
  bool ok = false;
  /// True when the result is a successful *cold* DIVERSIFY of a zoomable
  /// DisC-family solution: the exported capsule may seed radius adaptation
  /// (the flight's outcome should carry the plan's adapt_family).
  bool seedable = false;
};

/// Runs the planned computation on `engine` and serializes the outcome.
ComputeResult RunCompute(const ComputePlan& plan, DiscEngine& engine);

/// The one flight-leader path: RunCompute, then FinishFlight on
/// `plan.flight_key` with the response and — when the computation
/// succeeded — the exported session capsule, stamped with the plan's
/// adapt family and radius when the result is seedable; memoized iff it
/// succeeded. If the computation throws, the flight is finished with
/// InternalErrorLine (so its followers are released) and the exception is
/// rethrown. With an empty flight key this is RunCompute alone. Returns
/// the outcome the flight finished with (for an empty key: the response
/// only).
FlightOutcome LeadFlight(SessionManager& manager, const ComputePlan& plan,
                         DiscEngine& engine);

/// The one adopt path for a coalesced answer (a flight follower or a memo
/// hit): installs the outcome's capsule, when it has one, into `engine` so
/// the session's zoom chain stays valid, and returns the line to send —
/// the outcome's response, or the adoption's error line under `verb`.
std::string AdoptOutcome(Verb verb, const FlightOutcome& outcome,
                         DiscEngine& engine);

/// §5.2 seeding from the memo: for an adapt-eligible plan without a seed,
/// looks up the nearest memoized outcome in its family
/// (SessionManager::FindAdaptableSeed). On a hit, installs it as the
/// plan's seed and withdraws the plan's flight from adapt-follower
/// matching (RetractAdaptFlight) — the outcome will be adapted, hence not
/// seedable — and returns true.
bool SeedFromMemo(SessionManager& manager, ComputePlan* plan);

/// The error line every exception barrier answers with: the library is
/// Status-based and should never throw, so this only catches strays such
/// as bad_alloc under memory pressure.
std::string InternalErrorLine(const std::exception& error);

/// The synchronous half of per-command dispatch, shared verbatim by the
/// line, HTTP, and batch paths: answers every command that needs no engine
/// job — precondition failures (OPEN with a session open, compute/STATS/
/// CLOSE without one), STATS, CLOSE, and a stray BATCH envelope reaching
/// single-command execution — and returns true with `*response` set.
/// Returns false (response untouched) exactly when the command is an OPEN
/// or a DIVERSIFY/ZOOM whose preconditions hold: the caller runs
/// ExecuteOpen or PlanCompute+RunCompute, inline or on a worker.
bool DispatchFastPath(const CommandContext& ctx, const Request& request,
                      EngineLease* lease, std::string* response);

/// The complete per-command request->handler->response pipeline with no
/// coalescing: DispatchFastPath, else ExecuteOpen / PlanCompute+RunCompute
/// inline. The batch executor's sequential (coalesce=false) path; the
/// event loop composes DispatchFastPath with its own job dispatch instead.
std::string DispatchCommand(const CommandContext& ctx, const Request& request,
                            EngineLease* lease);

}  // namespace disc

#endif  // DISC_SERVER_HANDLERS_H_
