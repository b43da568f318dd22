// The serving benchmark's four workloads: who the clients are, how each one
// frames its commands, and the seeded command streams they send.
//
// A client's stream is a dialogue. The session workloads (explore-cold,
// graph-open) pick each next radius from the previous answer; the shared
// workloads (shared-adapt, shared-batch) draw their commands from the seed
// alone, so the same per-client stream can be shipped one command at a time
// or packed into BATCH frames. Either way the stream is a pure function of
// (workload, seed, client, answers received), and the server sees only the
// generated command lines.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

/// How one client connection talks to the server.
enum class Framing {
  kLine,   // one command line, one response line
  kHttp,   // one POST per command; the body is the response line
  kBatch,  // line connection shipping "BATCH n=k" frames
};

const char* FramingName(Framing framing);

/// The fields of one response line the benchmark reads. `body` is the line
/// without its machine-dependent "wall_ms" field: the bytes the output check
/// compares against the replica.
struct Reply {
  bool ok = false;
  std::string cmd;
  std::string code;  // error code ("Busy", ...) when !ok
  double radius = 0.0;
  uint64_t size = 0;
  bool from_cache = false;
  bool adapted = false;
  double seed_radius = 0.0;
  uint64_t node_accesses = 0;
  uint64_t distance_computations = 0;
  double wall_ms = -1.0;  // -1 when the line carries none
  std::string body;
};

/// Parses one response line. Lines that are not a JSON object with a
/// leading "ok" field parse as !ok with code "Malformed".
Reply ParseReply(const std::string& line);

/// A client's command source.
class Script {
 public:
  virtual ~Script() = default;
  /// The next command line. `last` is the reply to the previous command
  /// (null before the first one, and for frame-shipped streams, which never
  /// depend on answers).
  virtual std::string Next(const Reply* last) = 0;
};

struct WorkloadSpec {
  std::string name;
  /// One entry per client connection.
  std::vector<Framing> clients;
  /// Commands per BATCH frame (kBatch clients only).
  size_t batch_size = 0;
  /// True when every client OPENs one shared dataset once, during set-up;
  /// false when clients run OPEN ... CLOSE sessions on fresh datasets.
  bool shared = false;
  /// OPEN arguments of datasets the server pre-builds before clients
  /// connect (the first part of the warm-up).
  std::vector<std::string> prewarm;
  /// Commands (frames, for kBatch) each client sends after its OPEN and
  /// before the timed phase starts: the rest of its first session, or,
  /// for the shared workloads, enough to fill the session manager's memo
  /// as a long-running daemon's is.
  size_t warmup_units = 0;
};

/// "explore-cold", "shared-adapt", "shared-batch", "graph-open".
const std::vector<std::string>& WorkloadNames();

/// The workload `name` for a run with `seed` and `clients` connections.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, size_t clients,
                  WorkloadSpec* spec);

/// Client `client`'s stream. Its first command is always the OPEN the
/// set-up phase sends.
std::unique_ptr<Script> MakeScript(const std::string& workload, uint64_t seed,
                                   size_t client);

/// Deterministic 64-bit mixing (SplitMix64 finalizer).
uint64_t Mix(uint64_t x);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
