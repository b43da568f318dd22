#include "server/batch.h"

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace disc {

namespace {

/// A cold DisC-family DIVERSIFY solve retained for the rest of the batch:
/// the family anchor(s) later family members adapt from when the manager's
/// memo cannot seed them (e.g. LRU eviction mid-batch).
struct BatchSeed {
  std::shared_ptr<DiscEngine::SessionCapsule> capsule;
  double radius = 0.0;
};

/// One coalescing-path compute (DIVERSIFY/ZOOM with preconditions already
/// checked): the single-flight join a per-command request performs, minus
/// the waiting — see the header on why a batch never parks behind another
/// connection's flight — then the planner's seed selection and the shared
/// leader path.
std::string ExecutePlannedCompute(
    const CommandContext& ctx, ComputePlan plan, DiscEngine& engine,
    std::map<std::string, std::vector<BatchSeed>>* batch_seeds) {
  if (!plan.flight_key.empty()) {
    FlightOutcome cached;
    // The family advertisement is optimistic — the leader may yet find a
    // seed and produce a (non-seedable) adapted outcome, in which case any
    // adapt-follower that joined meanwhile falls back to a cold compute.
    const FlightJoin join = ctx.manager->JoinFlight(
        plan.flight_key, [](const FlightOutcome&) {}, &cached,
        plan.adapt_family, plan.diversify.radius);
    if (join == FlightJoin::kCached) {
      return AdoptOutcome(plan.verb, cached, engine);
    }
    if (join == FlightJoin::kFollower) {
      // Another connection is computing this key right now. Waiting would
      // park this worker (deadlock with a saturated pool), so compute on
      // our own engine, outside the flight we do not lead — equal flight
      // keys guarantee identical bytes. The no-op waiter registered above
      // fires later and touches nothing.
      plan.flight_key.clear();
    }
  }
  // Memo first: in sequential execution every earlier cold solve of this
  // family was memoized before this command ran, so consulting the memo
  // reproduces the per-command bytes AND the per-command flights_adapted
  // accounting. The retained in-batch anchors only catch what the LRU
  // already evicted.
  if (plan.adapt && !SeedFromMemo(*ctx.manager, &plan)) {
    auto family = batch_seeds->find(plan.adapt_family);
    if (family != batch_seeds->end()) {
      const std::vector<BatchSeed>& anchors = family->second;
      auto anchor = NearestSeed(
          anchors.begin(), anchors.end(), plan.diversify.radius,
          [&](const BatchSeed& seed) -> std::optional<SeedRank> {
            return SeedRank{seed.radius,
                            static_cast<uint64_t>(&seed - anchors.data())};
          });
      if (anchor != anchors.end()) {
        plan.seed = anchor->capsule;
        plan.seed_radius = anchor->radius;
        // Adapted, hence non-seedable: withdraw the advertisement, as
        // SeedFromMemo does.
        ctx.manager->RetractAdaptFlight(plan.flight_key);
      }
    }
  }
  const FlightOutcome outcome = LeadFlight(*ctx.manager, plan, engine);
  if (!outcome.adapt_family.empty()) {
    (*batch_seeds)[plan.adapt_family].push_back(
        BatchSeed{outcome.capsule, plan.diversify.radius});
  }
  return outcome.response;
}

}  // namespace

std::vector<std::string> ExecuteBatch(const CommandContext& ctx,
                                      const std::vector<std::string>& lines,
                                      EngineLease* lease, bool coalesce) {
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  // Cold DisC-family solves this batch produced, by family: the planner's
  // anchors. Retained until the batch ends so every later family member
  // can adapt even if the memo LRU turned over.
  std::map<std::string, std::vector<BatchSeed>> batch_seeds;
  for (const std::string& line : lines) {
    std::string response;
    try {
      Result<Request> request = ParseRequest(line);
      if (!request.ok()) {
        // Includes blank lines: unlike the streaming transports (which
        // skip them without answering), a batch owes one response per
        // slot, so an empty command is answered with its parse error.
        response = SerializeError("?", request.status());
      } else if (!coalesce) {
        response = DispatchCommand(ctx, *request, lease);
      } else if (DispatchFastPath(ctx, *request, lease, &response)) {
        // Precondition failure, STATS, CLOSE, or nested BATCH: answered.
      } else if (request->verb == Verb::kOpen) {
        response = ExecuteOpen(ctx, *request, lease);
      } else {
        Result<ComputePlan> plan = PlanCompute(*request, *lease);
        if (!plan.ok()) {
          response = SerializeError(VerbToString(request->verb),
                                    plan.status());
        } else {
          response = ExecutePlannedCompute(ctx, std::move(*plan),
                                           lease->engine(), &batch_seeds);
        }
      }
    } catch (const std::exception& e) {
      // Per-command isolation: the event loop's barrier line, then on to
      // the next command.
      response = InternalErrorLine(e);
    }
    responses.push_back(std::move(response));
  }
  return responses;
}

}  // namespace disc
