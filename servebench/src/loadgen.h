// The closed-loop load generator: starts an in-process DiscServer, runs the
// set-up phase (server start, warm-up, connects, first OPENs) several
// times, then drives every client connection for the timed phase and
// records each command's latency and reply.

#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "server/server.h"
#include "workload.h"

namespace servebench {

/// Server and client sizing, recorded with every result.
struct ServeConfig {
  size_t nproc = 1;
  size_t clients = 1;
  size_t workers = 1;
  size_t engine_threads = 2;
};

/// workers x engine_threads <= nproc with engine_threads = 2, so the
/// speculative selection and the parallel count pass stay on the measured
/// path; at most 4 clients.
ServeConfig DefaultServeConfig();

inline constexpr uint32_t kNoItem = std::numeric_limits<uint32_t>::max();

/// One command as the client saw it.
struct Record {
  uint32_t client = 0;
  disc::Verb verb = disc::Verb::kStats;
  bool ok = false;         // answered {"ok":true,...}
  bool busy = false;       // refused with code Busy
  bool transport = false;  // no answer: the connection failed
  bool setup = false;      // sent during the set-up phase
  bool from_cache = false;
  bool adapted = false;
  /// The command was the first radius change of a graph-mode session (its
  /// second DIVERSIFY), which stands in for ZOOM in the per-verb split.
  bool radius_change = false;
  double latency_ms = 0.0;
  double wall_ms = -1.0;
  uint32_t bytes = 0;
  uint64_t node_accesses = 0;
  uint64_t distance_computations = 0;
  /// Index into RunResult::items for ok replies the output check compares.
  uint32_t item = kNoItem;
};

/// One distinct ok reply to check against the replica: the session state
/// it was produced in, the command, and the reply bytes minus wall_ms.
struct CheckItem {
  disc::Verb verb = disc::Verb::kStats;
  /// The OPEN line of the session (empty for OPEN and CLOSE items).
  std::string dataset;
  /// The commands that put the session in its state, since the last
  /// DIVERSIFY, as "line\tadapted\tseed_radius" (ZOOM items only).
  std::vector<std::string> recipe;
  std::string command;
  std::string body;
  bool adapted = false;
  double seed_radius = 0.0;
  bool from_cache = false;
};

struct RunResult {
  std::vector<double> setup_s;
  /// OPENs sent during set-up, across every repetition.
  std::vector<Record> setup_opens;
  /// The timed phase's commands, plus the last set-up's OPENs.
  std::vector<Record> records;
  std::vector<CheckItem> items;
  /// Commands each client sent (the replay input; capped).
  std::vector<std::vector<std::string>> sent;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  size_t frames = 0;
  disc::SessionManagerStats manager_delta;
  disc::ServerStats server_delta;
};

/// One entry of CheckItem::recipe.
std::string RecipeStep(const std::string& line, bool adapted,
                       double seed_radius);

/// Runs `spec` for `seconds` after `setups` set-up repetitions.
disc::Result<RunResult> RunLoad(const WorkloadSpec& spec, uint64_t seed,
                                const ServeConfig& config, double seconds,
                                int setups);

/// The server options the benchmark runs with.
disc::ServerOptions BenchServerOptions(const WorkloadSpec& spec,
                                       const ServeConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
