#include "verify.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "core/disc_algorithms.h"
#include "engine/engine.h"
#include "server/protocol.h"

namespace servebench {

namespace {

using disc::AccessStats;
using disc::DiscEngine;
using disc::DiversifyResponse;
using disc::Result;
using disc::Status;

/// A replica of one session dataset, plus the state bookkeeping that lets
/// consecutive items of one chain (DIVERSIFY, ZOOM, ZOOM) share its work.
struct Replica {
  std::string open_line;
  disc::EngineConfig config;
  std::string dataset_text;
  std::unique_ptr<DiscEngine> engine;
  /// An identically built tree that prices the neighborhood-count pass.
  std::unique_ptr<disc::MTree> shadow;
  std::map<double, AccessStats> count_cost;
  /// Recipe steps applied since the last Reset (what the engine holds).
  std::vector<std::string> chain;
};

Status Load(Replica* replica, const std::string& open_line,
            size_t max_exact_points) {
  if (replica->engine != nullptr && replica->open_line == open_line) {
    return Status::OK();
  }
  DISC_ASSIGN_OR_RETURN(disc::Request request, disc::ParseRequest(open_line));
  DISC_ASSIGN_OR_RETURN(disc::OpenParams params, disc::DecodeOpen(request));
  params.config.threads = 1;
  params.config.neighbor.max_exact_points = max_exact_points;
  replica->config = params.config;
  replica->dataset_text = params.dataset_text;
  replica->shadow.reset();
  replica->count_cost.clear();
  replica->chain.clear();
  DISC_ASSIGN_OR_RETURN(replica->engine, DiscEngine::Create(params.config));
  replica->open_line = open_line;
  return Status::OK();
}

struct Step {
  std::string line;
  bool adapted = false;
  double seed_radius = 0.0;
};

Step ParseStep(const std::string& text) {
  Step step;
  const size_t a = text.find('\t');
  const size_t b = text.find('\t', a + 1);
  step.line = text.substr(0, a);
  step.adapted = text.compare(a + 1, 1, "1") == 0;
  step.seed_radius = std::strtod(text.c_str() + b + 1, nullptr);
  return step;
}

Result<DiversifyResponse> RunDiversify(DiscEngine& engine, const Step& step) {
  DISC_ASSIGN_OR_RETURN(disc::Request request, disc::ParseRequest(step.line));
  DISC_ASSIGN_OR_RETURN(disc::DiversifyRequest diversify,
                        disc::DecodeDiversify(request));
  if (!step.adapted) return engine.Diversify(diversify);
  disc::DiversifyRequest seed = diversify;
  seed.radius = step.seed_radius;
  seed.compute_quality = false;
  DISC_RETURN_NOT_OK(engine.Diversify(seed).status());
  disc::ZoomRequest zoom;
  zoom.radius = diversify.radius;
  zoom.compute_quality = diversify.compute_quality;
  return engine.Zoom(zoom);
}

Result<DiversifyResponse> RunZoom(DiscEngine& engine,
                                  const std::string& line) {
  DISC_ASSIGN_OR_RETURN(disc::Request request, disc::ParseRequest(line));
  DISC_ASSIGN_OR_RETURN(disc::ZoomRequest zoom, disc::DecodeZoom(request));
  return engine.Zoom(zoom);
}

/// Resets the replica and replays `recipe`; with `banked`, the first
/// DIVERSIFY is restored from the solution cache after a zoom-in banked its
/// recomputed closest-black distances (the state a pooled engine serves a
/// cached solution in).
Status Replay(Replica* replica, const std::vector<std::string>& recipe,
              bool banked) {
  DiscEngine& engine = *replica->engine;
  engine.Reset();
  replica->chain.clear();
  for (size_t i = 0; i < recipe.size(); ++i) {
    const Step step = ParseStep(recipe[i]);
    if (i == 0) {
      DISC_ASSIGN_OR_RETURN(DiversifyResponse base,
                            RunDiversify(engine, step));
      if (banked) {
        disc::ZoomRequest bank;
        bank.radius = base.radius * 0.5;
        DISC_RETURN_NOT_OK(engine.Zoom(bank).status());
        DISC_RETURN_NOT_OK(RunDiversify(engine, step).status());
      }
    } else {
      DISC_RETURN_NOT_OK(RunZoom(engine, step.line).status());
    }
  }
  if (!banked) replica->chain = recipe;
  return Status::OK();
}

AccessStats CountCost(Replica* replica, double radius) {
  auto it = replica->count_cost.find(radius);
  if (it != replica->count_cost.end()) return it->second;
  if (replica->shadow == nullptr) {
    replica->shadow = std::make_unique<disc::MTree>(
        replica->engine->dataset(), replica->engine->metric(),
        replica->config.tree);
    if (!replica->shadow->Build().ok()) return AccessStats{};
  }
  const AccessStats before = replica->shadow->stats();
  std::vector<uint32_t> counts;
  replica->shadow->ComputeNeighborCountsPostBuild(radius, &counts);
  const AccessStats cost = replica->shadow->stats() - before;
  replica->count_cost.emplace(radius, cost);
  return cost;
}

Status CheckDiversify(Replica* replica, const CheckItem& item) {
  DiscEngine& engine = *replica->engine;
  engine.Reset();
  const Step step{item.command, item.adapted, item.seed_radius};
  const size_t radii_before = engine.Snapshot().cached_count_radii;
  DISC_ASSIGN_OR_RETURN(DiversifyResponse response,
                        RunDiversify(engine, step));
  replica->chain.assign(
      1, RecipeStep(item.command, item.adapted, item.seed_radius));
  if (item.adapted) {
    if (disc::SerializeAdaptedResponse(response, item.seed_radius, false) ==
        item.body) {
      return Status::OK();
    }
    return Status::Corruption("adapted answer differs from the replica");
  }
  if (item.from_cache) {
    response.from_cache = true;
    response.stats = AccessStats{};
  }
  if (disc::SerializeDiversifyResponse(disc::Verb::kDiversify, response,
                                       false) == item.body) {
    return Status::OK();
  }
  const bool exact =
      engine.Snapshot().backend == disc::NeighborBackendKind::kExact;
  DISC_ASSIGN_OR_RETURN(disc::Request request,
                        disc::ParseRequest(item.command));
  DISC_ASSIGN_OR_RETURN(disc::DiversifyRequest diversify,
                        disc::DecodeDiversify(request));
  if (!item.from_cache && exact &&
      disc::AlgorithmUsesNeighborCounts(diversify.algorithm)) {
    const bool fresh = engine.Snapshot().cached_count_radii > radii_before;
    const AccessStats cost = CountCost(replica, diversify.radius);
    DiversifyResponse warm = response;
    if (fresh) {
      warm.stats = response.stats - cost;
    } else {
      warm.stats += cost;
    }
    if (disc::SerializeDiversifyResponse(disc::Verb::kDiversify, warm,
                                         false) == item.body) {
      return Status::OK();
    }
  }
  return Status::Corruption("answer differs from the replica's cold solve");
}

Status CheckZoom(Replica* replica, const CheckItem& item) {
  if (item.recipe.empty()) {
    return Status::Corruption("ZOOM answered ok with no solution to zoom");
  }
  if (replica->chain != item.recipe) {
    DISC_RETURN_NOT_OK(Replay(replica, item.recipe, false));
  }
  DISC_ASSIGN_OR_RETURN(DiversifyResponse response,
                        RunZoom(*replica->engine, item.command));
  replica->chain.push_back(RecipeStep(item.command, false, 0.0));
  if (disc::SerializeDiversifyResponse(disc::Verb::kZoom, response, false) ==
      item.body) {
    return Status::OK();
  }
  if (!ParseStep(item.recipe.front()).adapted) {
    DISC_RETURN_NOT_OK(Replay(replica, item.recipe, true));
    replica->chain.clear();
    DISC_ASSIGN_OR_RETURN(DiversifyResponse banked,
                          RunZoom(*replica->engine, item.command));
    if (disc::SerializeDiversifyResponse(disc::Verb::kZoom, banked, false) ==
        item.body) {
      return Status::OK();
    }
  }
  return Status::Corruption("zoom answer differs from the replica chain");
}

Status CheckOne(Replica* replica, const CheckItem& item,
                size_t max_exact_points) {
  switch (item.verb) {
    case disc::Verb::kClose:
      return item.body == disc::SerializeClose()
                 ? Status::OK()
                 : Status::Corruption("CLOSE answer differs");
    case disc::Verb::kOpen: {
      DISC_RETURN_NOT_OK(Load(replica, item.command, max_exact_points));
      const std::string expected = disc::SerializeOpen(
          replica->engine->Snapshot(), replica->dataset_text, false);
      const std::string cut = ",\"reused\":";
      if (expected.substr(0, expected.find(cut)) ==
          item.body.substr(0, item.body.find(cut))) {
        return Status::OK();
      }
      return Status::Corruption("OPEN answer differs");
    }
    case disc::Verb::kDiversify:
      DISC_RETURN_NOT_OK(Load(replica, item.dataset, max_exact_points));
      return CheckDiversify(replica, item);
    case disc::Verb::kZoom:
      DISC_RETURN_NOT_OK(Load(replica, item.dataset, max_exact_points));
      return CheckZoom(replica, item);
    default:
      break;
  }
  return Status::Corruption("unexpected ok answer");
}

}  // namespace

CheckResult CheckOutputs(const std::vector<CheckItem>& items, size_t threads,
                         size_t max_exact_points) {
  CheckResult result;
  result.item_ok.assign(items.size(), 0);
  threads = std::max<size_t>(1, threads);

  // Tasks: runs of items over one dataset, in their original order (so a
  // session's chain replays incrementally), split so that a dataset shared
  // by every client still spreads over all threads.
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < items.size(); ++i) {
    const CheckItem& item = items[i];
    groups[item.verb == disc::Verb::kOpen ? item.command : item.dataset]
        .push_back(i);
  }
  std::vector<std::vector<size_t>> tasks;
  const size_t chunk = std::max<size_t>(1, (items.size() + threads - 1) /
                                               threads);
  for (auto& [dataset, members] : groups) {
    for (size_t begin = 0; begin < members.size(); begin += chunk) {
      const size_t end = std::min(members.size(), begin + chunk);
      tasks.emplace_back(members.begin() + begin, members.begin() + end);
    }
  }

  std::atomic<size_t> next{0};
  std::vector<std::string> why(items.size());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      Replica replica;
      for (size_t task = next++; task < tasks.size(); task = next++) {
        for (size_t i : tasks[task]) {
          const Status status = CheckOne(&replica, items[i], max_exact_points);
          if (status.ok()) {
            result.item_ok[i] = 1;
          } else {
            replica.chain.clear();
            why[i] = status.ToString();
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t i = 0; i < items.size(); ++i) {
    if (result.item_ok[i]) continue;
    ++result.mismatched_items;
    if (result.first_mismatch.empty()) {
      result.first_mismatch = why[i] + ": " + items[i].command + " -> " +
                              items[i].body.substr(0, 160);
    }
  }
  return result;
}

}  // namespace servebench
