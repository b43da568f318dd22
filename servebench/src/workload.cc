#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <utility>

#include "server/protocol.h"

namespace servebench {

namespace {

// Session datasets: big enough that the M-tree and count pass dominate a
// cold DIVERSIFY, small enough that a run completes tens of sessions.
constexpr int kPoints = 20000;

// explore-cold radii: [0.01, 0.07) in 6 strata, one stratum per session in
// a shuffled order, so every run covers the whole range evenly (a plain
// uniform draw over a few dozen sessions makes the medians wander).
constexpr double kExploreMin = 0.01;
constexpr double kExploreStratum = 0.01;
constexpr int kExploreStrata = 6;

// graph-open first radii: [0.01, 0.03) in 4 strata. The second radius
// follows the first answer: a user drowning in results widens the radius,
// one with few results narrows it.
constexpr double kGraphMin = 0.01;
constexpr double kGraphStratum = 0.005;
constexpr int kGraphStrata = 4;
constexpr uint64_t kGraphWiden = 2000;

// shared-*: a Zipf pool of radii somewhat larger than the session
// manager's 32-entry memo, so hot radii hit the memo and cold ones miss it.
constexpr size_t kPoolSize = 48;
constexpr int kPoolStrata = 6;
constexpr double kPoolMin = 0.02;
constexpr double kPoolSpan = 0.05;
constexpr double kZipfExponent = 1.0;
// Share of requests nudged off their pool radius (distinct keys that only
// §5.2 adaptation can serve), and share followed by a zoom-out.
constexpr double kOffsetShare = 0.2;
constexpr double kZoomShare = 0.3;
constexpr double kZoomOutFactor = 1.3;

constexpr size_t kBatchFrame = 8;
// Commands each shared-workload client sends during set-up, filling the
// memo before the timed phase. (A session-workload client completes its
// first session instead.)
constexpr size_t kWarmupCommands = 24;

/// Counter-based generator: every draw is a pure function of the key the
/// stream was seeded with, independent of the standard library.
class Rng {
 public:
  explicit Rng(uint64_t key) : state_(Mix(key)) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    return Mix(state_);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

uint64_t Key(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0) {
  return Mix(Mix(Mix(seed ^ 0xB5AD4ECEDA1CE2A9ull) ^ a) ^ (b * 31 + c));
}

std::string Radius(double r, double quantum) {
  return disc::FormatJsonDouble(std::round(r / quantum) * quantum);
}

uint64_t DatasetSeed(uint64_t seed, size_t client, size_t session) {
  return Key(seed, 0xD5, client + 1, session) % 1000000000ull + 1;
}

std::string OpenLine(const char* dataset, uint64_t dataset_seed,
                     const std::string& extra) {
  return std::string("OPEN dataset=") + dataset +
         " n=" + std::to_string(kPoints) +
         " dim=2 seed=" + std::to_string(dataset_seed) + " " + extra;
}

/// Radius for session `session` of a stratified stream: sessions come in
/// blocks that visit every stratum once, in a seeded order.
double StratifiedRadius(uint64_t seed, size_t client, size_t session,
                        double min, double stratum, int strata) {
  const size_t block = session / strata;
  std::vector<int> order(strata);
  for (int i = 0; i < strata; ++i) order[i] = i;
  Rng shuffle(Key(seed, 0x5A, client, block));
  for (int i = strata - 1; i > 0; --i) {
    std::swap(order[i], order[shuffle.Below(static_cast<size_t>(i) + 1)]);
  }
  Rng jitter(Key(seed, 0x7E, client, session));
  return min + (order[session % strata] + jitter.Uniform()) * stratum;
}

/// OPEN, DIVERSIFY r, ZOOM to≈0.7r, ZOOM to≈1.4r, CLOSE on a fresh
/// clustered dataset per session. Each zoom target is taken from the
/// radius the previous answer reports; a failed step abandons the session.
class ExploreColdScript : public Script {
 public:
  ExploreColdScript(uint64_t seed, size_t client)
      : seed_(seed), client_(client) {}

  std::string Next(const Reply* last) override {
    const bool ok = last != nullptr && last->ok;
    switch (step_) {
      case 1:
        if (!ok) return Open();
        step_ = 2;
        return "DIVERSIFY r=" +
               Radius(StratifiedRadius(seed_, client_, session_, kExploreMin,
                                       kExploreStratum, kExploreStrata),
                      1e-5);
      case 2:
        if (!ok) return Close();
        step_ = 3;
        return "ZOOM to=" + Radius(0.7 * last->radius, 1e-6);
      case 3:
        if (!ok) return Close();
        step_ = 4;
        return "ZOOM to=" + Radius(2.0 * last->radius, 1e-6);
      case 4:
        return Close();
      default:
        return Open();
    }
  }

 private:
  std::string Open() {
    step_ = 1;
    return OpenLine("clustered", DatasetSeed(seed_, client_, session_),
                    "build=bulk");
  }
  std::string Close() {
    step_ = 0;
    ++session_;
    return "CLOSE";
  }

  uint64_t seed_;
  size_t client_;
  size_t session_ = 0;
  int step_ = 0;
};

/// OPEN a fresh uniform dataset in graph mode (grid and sharded backends
/// alternate), DIVERSIFY greedy at r1, DIVERSIFY greedy-c at a radius
/// chosen from the first answer's size, CLOSE. No ZOOM: graph mode refuses
/// it.
class GraphOpenScript : public Script {
 public:
  GraphOpenScript(uint64_t seed, size_t client)
      : seed_(seed), client_(client) {}

  std::string Next(const Reply* last) override {
    const bool ok = last != nullptr && last->ok;
    switch (step_) {
      case 1:
        if (!ok) return Open();
        step_ = 2;
        return "DIVERSIFY r=" +
               Radius(StratifiedRadius(seed_, client_, session_, kGraphMin,
                                       kGraphStratum, kGraphStrata),
                      1e-5) +
               " algo=greedy";
      case 2: {
        if (!ok) return Close();
        step_ = 3;
        const double factor = last->size > kGraphWiden ? 1.5 : 0.75;
        return "DIVERSIFY r=" + Radius(factor * last->radius, 1e-6) +
               " algo=greedy-c";
      }
      case 3:
        return Close();
      default:
        return Open();
    }
  }

 private:
  std::string Open() {
    step_ = 1;
    const bool grid = (client_ + session_) % 2 == 0;
    return OpenLine("uniform", DatasetSeed(seed_, client_, session_),
                    grid ? "backend=grid" : "backend=sharded");
  }
  std::string Close() {
    step_ = 0;
    ++session_;
    return "CLOSE";
  }

  uint64_t seed_;
  size_t client_;
  size_t session_ = 0;
  int step_ = 0;
};

std::string SharedOpen(uint64_t seed) {
  return OpenLine("clustered", Key(seed, 0x407) % 1000000000ull + 1,
                  "build=bulk");
}

/// One OPEN of the run's hot dataset, then an endless seed-only stream of
/// "DIVERSIFY r=<Zipf pool radius, sometimes nudged> adapt=true", some
/// followed by a zoom-out. Identical for every framing, so shared-adapt and
/// shared-batch send the same commands.
class SharedScript : public Script {
 public:
  SharedScript(uint64_t seed, size_t client)
      : seed_(seed), rng_(Key(seed, 0x5E, client)) {
    // Rank k's radius lies in stratum (k's slot in a seeded order of the
    // kPoolStrata strata), so every block of kPoolStrata consecutive ranks
    // spans the whole range: which radii are hot changes with the seed,
    // how expensive the hot set is does not.
    Rng pool_rng(Key(seed, 0x9001));
    const double stratum = kPoolSpan / kPoolStrata;
    std::vector<int> order(kPoolStrata);
    for (size_t rank = 0; rank < kPoolSize; ++rank) {
      if (rank % kPoolStrata == 0) {
        for (int i = 0; i < kPoolStrata; ++i) order[i] = i;
        for (int i = kPoolStrata - 1; i > 0; --i) {
          std::swap(order[i],
                    order[pool_rng.Below(static_cast<size_t>(i) + 1)]);
        }
      }
      const double r = kPoolMin + (order[rank % kPoolStrata] +
                                   pool_rng.Uniform()) * stratum;
      pool_.push_back(Radius(r, 1e-5));
    }
    double total = 0.0;
    for (size_t k = 0; k < kPoolSize; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::string Next(const Reply*) override {
    if (!opened_) {
      opened_ = true;
      return SharedOpen(seed_);
    }
    if (queue_.empty()) Step();
    std::string line = std::move(queue_.front());
    queue_.pop_front();
    return line;
  }

 private:
  void Step() {
    const double u = rng_.Uniform();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    double r = std::strtod(pool_[std::min(rank, kPoolSize - 1)].c_str(),
                           nullptr);
    std::string text = disc::FormatJsonDouble(r);
    if (rng_.Uniform() < kOffsetShare) {
      const double sign = rng_.Uniform() < 0.5 ? -1.0 : 1.0;
      r *= 1.0 + sign * (0.005 + 0.025 * rng_.Uniform());
      text = Radius(r, 1e-6);
      r = std::strtod(text.c_str(), nullptr);
    }
    queue_.push_back("DIVERSIFY r=" + text + " adapt=true");
    if (rng_.Uniform() < kZoomShare) {
      queue_.push_back("ZOOM to=" + Radius(kZoomOutFactor * r, 1e-6));
    }
  }

  uint64_t seed_;
  Rng rng_;
  bool opened_ = false;
  std::vector<std::string> pool_;
  std::vector<double> cdf_;
  std::deque<std::string> queue_;
};

size_t FieldValue(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    if (pos > 0 && (line[pos - 1] == ',' || line[pos - 1] == '{')) {
      return pos + needle.size();
    }
    pos += needle.size();
  }
  return std::string::npos;
}

double NumberField(const std::string& line, const char* key, double absent) {
  const size_t at = FieldValue(line, key);
  if (at == std::string::npos) return absent;
  return std::strtod(line.c_str() + at, nullptr);
}

bool TrueField(const std::string& line, const char* key) {
  const size_t at = FieldValue(line, key);
  return at != std::string::npos && line.compare(at, 4, "true") == 0;
}

std::string StringField(const std::string& line, const char* key) {
  const size_t at = FieldValue(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') {
    return "";
  }
  const size_t end = line.find('"', at + 1);
  if (end == std::string::npos) return "";
  return line.substr(at + 1, end - at - 1);
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const char* FramingName(Framing framing) {
  switch (framing) {
    case Framing::kLine:
      return "line";
    case Framing::kHttp:
      return "http";
    case Framing::kBatch:
      return "batch";
  }
  return "?";
}

Reply ParseReply(const std::string& line) {
  Reply reply;
  if (line.rfind("{\"ok\":", 0) != 0) {
    reply.code = "Malformed";
    reply.body = line;
    return reply;
  }
  reply.ok = line.compare(6, 4, "true") == 0;
  reply.cmd = StringField(line, "cmd");
  if (!reply.ok) reply.code = StringField(line, "code");
  reply.radius = NumberField(line, "radius", 0.0);
  reply.size = static_cast<uint64_t>(NumberField(line, "size", 0.0));
  reply.from_cache = TrueField(line, "from_cache");
  reply.adapted = TrueField(line, "adapted");
  reply.seed_radius = NumberField(line, "seed_radius", 0.0);
  reply.node_accesses =
      static_cast<uint64_t>(NumberField(line, "node_accesses", 0.0));
  reply.distance_computations =
      static_cast<uint64_t>(NumberField(line, "distance_computations", 0.0));
  reply.wall_ms = NumberField(line, "wall_ms", -1.0);
  reply.body = line;
  const size_t wall = reply.body.find(",\"wall_ms\":");
  if (wall != std::string::npos) {
    const size_t end = reply.body.find_first_of(",}", wall + 1);
    reply.body.erase(wall, end == std::string::npos ? std::string::npos
                                                    : end - wall);
  }
  return reply;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "explore-cold", "shared-adapt", "shared-batch", "graph-open"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, size_t clients,
                  WorkloadSpec* spec) {
  *spec = WorkloadSpec{};
  spec->name = name;
  if (name == "explore-cold" || name == "graph-open") {
    spec->clients.assign(clients, Framing::kLine);
    // The rest of each client's first session: DIVERSIFY, ZOOM, ZOOM,
    // CLOSE, or DIVERSIFY, DIVERSIFY, CLOSE.
    spec->warmup_units = name == "explore-cold" ? 4 : 3;
    return true;
  }
  if (name == "shared-adapt" || name == "shared-batch") {
    spec->shared = true;
    spec->prewarm.push_back(SharedOpen(seed).substr(5));
    for (size_t c = 0; c < clients; ++c) {
      if (name == "shared-batch") {
        spec->clients.push_back(Framing::kBatch);
      } else {
        spec->clients.push_back(c % 2 == 0 ? Framing::kLine : Framing::kHttp);
      }
    }
    if (name == "shared-batch") {
      spec->batch_size = kBatchFrame;
      spec->warmup_units = kWarmupCommands / kBatchFrame;
    } else {
      spec->warmup_units = kWarmupCommands;
    }
    return true;
  }
  return false;
}

std::unique_ptr<Script> MakeScript(const std::string& workload, uint64_t seed,
                                   size_t client) {
  if (workload == "explore-cold") {
    return std::make_unique<ExploreColdScript>(seed, client);
  }
  if (workload == "graph-open") {
    return std::make_unique<GraphOpenScript>(seed, client);
  }
  return std::make_unique<SharedScript>(seed, client);
}

}  // namespace servebench
