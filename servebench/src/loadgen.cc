#include "loadgen.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "server/net.h"
#include "server/protocol.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSentCap = 4096;

// A refused command is not resent: it counts as failed. The client honours
// the protocol's "Retry-After: 1" (docs/PROTOCOL.md §5) before its next
// command, as a polite client of an overloaded server would.
constexpr auto kBusyBackoff = std::chrono::seconds(1);

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

disc::Verb VerbOf(const std::string& line) {
  const std::string word = line.substr(0, line.find(' '));
  if (word == "OPEN") return disc::Verb::kOpen;
  if (word == "DIVERSIFY") return disc::Verb::kDiversify;
  if (word == "ZOOM") return disc::Verb::kZoom;
  if (word == "CLOSE") return disc::Verb::kClose;
  if (word == "BATCH") return disc::Verb::kBatch;
  return disc::Verb::kStats;
}

/// One client connection in any framing.
class Conn {
 public:
  static disc::Result<Conn> Connect(int port, Framing framing) {
    Conn conn;
    conn.framing_ = framing;
    if (framing == Framing::kHttp) {
      DISC_ASSIGN_OR_RETURN(disc::HttpClient http,
                            disc::HttpClient::Connect("127.0.0.1", port));
      conn.http_.emplace(std::move(http));
    } else {
      DISC_ASSIGN_OR_RETURN(disc::LineClient line,
                            disc::LineClient::Connect("127.0.0.1", port));
      conn.line_.emplace(std::move(line));
    }
    return conn;
  }

  /// Sends `lines` (one command, or one BATCH frame) and returns one
  /// (reply line, arrival time) per command. A frame refused as a whole
  /// answers every command with its single refusal line.
  disc::Status Exchange(const std::vector<std::string>& lines,
                        std::vector<std::pair<std::string, Clock::time_point>>*
                            replies) {
    replies->clear();
    if (framing_ == Framing::kHttp) {
      const std::string& command = lines.front();
      const size_t space = command.find(' ');
      std::string path = command.substr(0, space);
      path.insert(path.begin(), '/');
      for (char& c : path) c = static_cast<char>(std::tolower(c));
      const std::string args =
          space == std::string::npos ? "" : command.substr(space + 1);
      DISC_ASSIGN_OR_RETURN(disc::HttpResponse response,
                            http_->Post(path, args));
      std::string body = std::move(response.body);
      if (!body.empty() && body.back() == '\n') body.pop_back();
      replies->emplace_back(std::move(body), Clock::now());
      return disc::Status::OK();
    }
    if (lines.size() == 1) {
      DISC_RETURN_NOT_OK(line_->SendLine(lines.front()));
    } else {
      std::string frame = "BATCH n=" + std::to_string(lines.size());
      for (const std::string& line : lines) frame += "\n" + line;
      DISC_RETURN_NOT_OK(line_->SendLine(frame));
    }
    while (replies->size() < lines.size()) {
      DISC_ASSIGN_OR_RETURN(std::string line, line_->RecvLine());
      const Clock::time_point at = Clock::now();
      if (replies->empty() && lines.size() > 1 &&
          line.rfind("{\"ok\":false,\"cmd\":\"BATCH\"", 0) == 0) {
        replies->assign(lines.size(), {line, at});
        break;
      }
      replies->emplace_back(std::move(line), at);
    }
    return disc::Status::OK();
  }

 private:
  Framing framing_ = Framing::kLine;
  std::optional<disc::LineClient> line_;
  std::optional<disc::HttpClient> http_;
};

/// Two items with equal keys are the same check.
std::string CheckKey(const CheckItem& item) {
  std::string key = item.dataset;
  for (const std::string& step : item.recipe) key += "\x1e" + step;
  key += "\x1f" + item.command + "\x1d" + item.body;
  return key;
}

/// Per-client bookkeeping: the session state the output check needs, and
/// the distinct ok replies interned as check items.
class ClientLog {
 public:
  void Add(const std::string& command, const Reply& reply, double latency_ms,
           uint32_t client, bool radius_change, std::vector<Record>* out) {
    Record record;
    record.client = client;
    record.verb = VerbOf(command);
    record.ok = reply.ok;
    record.busy = reply.code == "Busy";
    record.from_cache = reply.from_cache;
    record.adapted = reply.adapted;
    record.radius_change = radius_change;
    record.latency_ms = latency_ms;
    record.wall_ms = reply.wall_ms;
    record.bytes = static_cast<uint32_t>(reply.body.size());
    record.node_accesses = reply.node_accesses;
    record.distance_computations = reply.distance_computations;
    if (reply.ok) {
      record.item = Intern(record.verb, command, reply);
      Apply(record.verb, command, reply);
    }
    out->push_back(record);
  }

  std::vector<CheckItem> items;

 private:
  uint32_t Intern(disc::Verb verb, const std::string& command,
                  const Reply& reply) {
    CheckItem item;
    item.verb = verb;
    item.command = command;
    item.body = reply.body;
    item.adapted = reply.adapted;
    item.seed_radius = reply.seed_radius;
    item.from_cache = reply.from_cache;
    if (verb == disc::Verb::kDiversify || verb == disc::Verb::kZoom) {
      item.dataset = dataset_;
    }
    if (verb == disc::Verb::kZoom) item.recipe = recipe_;
    auto [it, inserted] =
        index_.emplace(CheckKey(item), static_cast<uint32_t>(items.size()));
    if (inserted) items.push_back(std::move(item));
    return it->second;
  }

  void Apply(disc::Verb verb, const std::string& command, const Reply& reply) {
    switch (verb) {
      case disc::Verb::kOpen:
        dataset_ = command;
        recipe_.clear();
        break;
      case disc::Verb::kDiversify:
        recipe_.assign(
            1, RecipeStep(command, reply.adapted, reply.seed_radius));
        break;
      case disc::Verb::kZoom:
        recipe_.push_back(RecipeStep(command, false, 0.0));
        break;
      case disc::Verb::kClose:
        dataset_.clear();
        recipe_.clear();
        break;
      default:
        break;
    }
  }

  std::string dataset_;
  std::vector<std::string> recipe_;
  std::map<std::string, uint32_t> index_;
};

/// What one client thread did in one repetition.
struct ClientOutcome {
  std::vector<Record> opens;
  std::vector<Record> records;
  ClientLog log;
  std::vector<std::string> sent;
  size_t frames = 0;
};

void RunClient(const WorkloadSpec& spec, uint64_t seed, size_t client,
               int port, bool timed, std::latch* ready,
               const std::atomic<bool>* go, const Clock::time_point* deadline,
               ClientOutcome* outcome) {
  const Framing framing = spec.clients[client];
  std::unique_ptr<Script> script = MakeScript(spec.name, seed, client);
  std::vector<std::pair<std::string, Clock::time_point>> replies;
  std::optional<Conn> conn;
  Reply last;
  bool have_last = false;
  bool dead = false;
  size_t diversifies_in_session = 0;

  auto exchange = [&](const std::vector<std::string>& lines,
                      std::vector<Record>* out) {
    const Clock::time_point sent = Clock::now();
    for (const std::string& line : lines) {
      if (outcome->sent.size() < kSentCap) outcome->sent.push_back(line);
    }
    disc::Status status = dead ? disc::Status::IOError("connection lost")
                               : conn->Exchange(lines, &replies);
    if (!status.ok()) {
      dead = true;
      for (const std::string& line : lines) {
        Record record;
        record.client = static_cast<uint32_t>(client);
        record.verb = VerbOf(line);
        record.transport = true;
        out->push_back(record);
      }
      have_last = false;
      return;
    }
    for (size_t i = 0; i < lines.size(); ++i) {
      last = ParseReply(replies[i].first);
      have_last = true;
      const disc::Verb verb = VerbOf(lines[i]);
      if (verb == disc::Verb::kOpen) diversifies_in_session = 0;
      const bool radius_change =
          verb == disc::Verb::kDiversify && !spec.shared &&
          diversifies_in_session++ == 1;
      outcome->log.Add(lines[i], last, Ms(sent, replies[i].second),
                       static_cast<uint32_t>(client), radius_change, out);
    }
  };

  disc::Result<Conn> connected = Conn::Connect(port, framing);
  if (connected.ok()) {
    conn.emplace(std::move(connected).value());
  } else {
    dead = true;
  }
  // One command, or one frame of the batch framing.
  auto next_unit = [&] {
    std::vector<std::string> lines;
    if (framing == Framing::kBatch) {
      for (size_t i = 0; i < spec.batch_size; ++i) {
        lines.push_back(script->Next(nullptr));
      }
    } else {
      lines.push_back(script->Next(have_last ? &last : nullptr));
    }
    return lines;
  };

  exchange({script->Next(nullptr)}, &outcome->opens);
  std::vector<Record> warmup;
  for (size_t i = 0; i < spec.warmup_units && !dead; ++i) {
    exchange(next_unit(), &warmup);
  }
  ready->count_down();
  if (!timed) return;
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  while (Clock::now() < *deadline && !dead) {
    const std::vector<std::string> lines = next_unit();
    if (framing == Framing::kBatch) ++outcome->frames;
    exchange(lines, &outcome->records);
    if (outcome->records.back().busy) {
      std::this_thread::sleep_until(
          std::min(*deadline, Clock::now() + kBusyBackoff));
    }
  }
}

}  // namespace

std::string RecipeStep(const std::string& line, bool adapted,
                       double seed_radius) {
  char flags[64];
  std::snprintf(flags, sizeof(flags), "\t%d\t%.17g", adapted ? 1 : 0,
                seed_radius);
  return line + flags;
}

ServeConfig DefaultServeConfig() {
  ServeConfig config;
  config.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  config.clients = std::min<size_t>(4, config.nproc);
  config.engine_threads = 2;
  config.workers = std::max<size_t>(1, config.nproc / config.engine_threads);
  config.workers = std::min<size_t>(config.workers, 2);
  return config;
}

disc::ServerOptions BenchServerOptions(const WorkloadSpec& spec,
                                       const ServeConfig& config) {
  disc::ServerOptions options;
  options.workers = config.workers;
  options.engine_threads = config.engine_threads;
  for (const std::string& args : spec.prewarm) {
    disc::Result<disc::Request> request = disc::ParseRequest("OPEN " + args);
    if (!request.ok()) continue;
    disc::Result<disc::OpenParams> params = disc::DecodeOpen(*request);
    if (!params.ok()) continue;
    params->config.threads = config.engine_threads;
    params->config.neighbor.max_exact_points = options.max_exact_points;
    options.prewarm.push_back(params->config);
  }
  return options;
}

disc::Result<RunResult> RunLoad(const WorkloadSpec& spec, uint64_t seed,
                                const ServeConfig& config, double seconds,
                                int setups) {
  RunResult result;
  const size_t clients = spec.clients.size();
  for (int rep = 0; rep < setups; ++rep) {
    const bool timed = rep + 1 == setups;
    const Clock::time_point start = Clock::now();
    DISC_ASSIGN_OR_RETURN(
        std::unique_ptr<disc::DiscServer> server,
        disc::DiscServer::Start(BenchServerOptions(spec, config)));
    std::latch ready(static_cast<std::ptrdiff_t>(clients));
    std::atomic<bool> go{false};
    Clock::time_point deadline;
    std::vector<ClientOutcome> outcomes(clients);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back(RunClient, std::cref(spec), seed, c, server->port(),
                           timed, &ready, &go, &deadline, &outcomes[c]);
    }
    ready.wait();
    result.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    for (ClientOutcome& outcome : outcomes) {
      result.setup_opens.insert(result.setup_opens.end(),
                                outcome.opens.begin(), outcome.opens.end());
    }
    if (!timed) {
      for (std::thread& t : threads) t.join();
      server->Shutdown();
      continue;
    }

    const disc::SessionManagerStats manager_before = server->manager_stats();
    const disc::ServerStats server_before = server->server_stats();
    std::atomic<bool> sampling{true};
    double peak_rss = RssMb();
    std::thread sampler([&] {
      while (sampling.load()) {
        peak_rss = std::max(peak_rss, RssMb());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    const double cpu_before = CpuSeconds();
    const Clock::time_point window_start = Clock::now();
    deadline = window_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    result.window_s =
        std::chrono::duration<double>(Clock::now() - window_start).count();
    result.cpu_s = CpuSeconds() - cpu_before;
    sampling.store(false);
    sampler.join();
    result.peak_rss_mb = std::max(peak_rss, RssMb());

    const disc::SessionManagerStats m = server->manager_stats();
    const disc::SessionManagerStats& b = manager_before;
    disc::SessionManagerStats& d = result.manager_delta;
    d.leases_acquired = m.leases_acquired - b.leases_acquired;
    d.pool_hits = m.pool_hits - b.pool_hits;
    d.engines_created = m.engines_created - b.engines_created;
    d.flights_led = m.flights_led - b.flights_led;
    d.flights_coalesced = m.flights_coalesced - b.flights_coalesced;
    d.flights_memoized = m.flights_memoized - b.flights_memoized;
    d.flights_adapted = m.flights_adapted - b.flights_adapted;
    d.flights_adapt_followed =
        m.flights_adapt_followed - b.flights_adapt_followed;
    const disc::ServerStats s = server->server_stats();
    result.server_delta.busy_rejections =
        s.busy_rejections - server_before.busy_rejections;
    result.server_delta.coalesced_responses =
        s.coalesced_responses - server_before.coalesced_responses;
    result.server_delta.http_requests =
        s.http_requests - server_before.http_requests;
    server->Shutdown();

    // Merge the clients' logs: the set-up OPENs of this repetition count
    // as attempted commands, then every timed command.
    std::map<std::string, uint32_t> merged;
    for (ClientOutcome& outcome : outcomes) {
      std::vector<uint32_t> remap(outcome.log.items.size());
      for (size_t i = 0; i < outcome.log.items.size(); ++i) {
        CheckItem& item = outcome.log.items[i];
        auto [it, inserted] = merged.emplace(
            CheckKey(item), static_cast<uint32_t>(result.items.size()));
        if (inserted) result.items.push_back(std::move(item));
        remap[i] = it->second;
      }
      for (std::vector<Record>* list : {&outcome.opens, &outcome.records}) {
        for (Record record : *list) {
          if (record.item != kNoItem) record.item = remap[record.item];
          record.setup = list == &outcome.opens;
          result.records.push_back(record);
        }
      }
      result.frames += outcome.frames;
      result.sent.push_back(std::move(outcome.sent));
    }
  }
  return result;
}

}  // namespace servebench
