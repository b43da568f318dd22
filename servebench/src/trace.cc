#include "trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/disc_algorithms.h"
#include "core/reference.h"
#include "core/zoom.h"
#include "data/generators.h"
#include "engine/engine.h"
#include "graph/neighborhood.h"
#include "neighbor/backend.h"
#include "server/batch.h"
#include "server/handlers.h"
#include "server/http.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/parallel.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

// How much of each client's stream the replay re-runs: two sessions of the
// session workloads, the OPEN plus 30 commands of the shared ones.
size_t ReplayLength(const WorkloadSpec& spec) {
  if (spec.name == "explore-cold") return 10;
  if (spec.name == "graph-open") return 8;
  return 31;
}

constexpr size_t kIdleEngines = 8;  // ServerOptions::max_idle_engines
constexpr size_t kDistanceProbePairs = 200000;
constexpr size_t kRangeProbeQueries = 500;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// In-memory span recorder for the single-threaded replay. Disabled, it
/// records nothing and costs one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.start_ns = Now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    stack_.pop_back();
  }

  /// Runs `fn` inside a span named `name`.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const int id = Begin(name);
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->End(id); }
    } closer{this, id};
    return fn();
  }

  /// Records a finished span with `parent` (a re-execution span that
  /// belongs to an engine call it did not run inside of); returns its id.
  int Record(const std::string& name, int64_t start_ns, int64_t end_ns,
             int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request_});
    return static_cast<int>(spans_.size()) - 1;
  }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  void NewRequest() { ++request_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The benchmark's own copy of a session dataset and its index, on which
/// the replay re-executes the work beneath each cold engine call through
/// the layers' public functions.
struct Shadow {
  disc::Dataset dataset;
  std::unique_ptr<disc::DistanceMetric> metric;
  std::unique_ptr<disc::MTree> tree;
  std::unique_ptr<disc::NeighborBackend> backend;
  std::map<double, std::vector<uint32_t>> counts;
  /// The client whose engine state the tree colors mirror (-1: none).
  int synced_client = -1;
  double radius = 0.0;
};

disc::Dataset Generate(const disc::EngineConfig& config) {
  const disc::DatasetSpec& spec = config.dataset;
  if (spec.source == disc::DatasetSpec::Source::kUniform) {
    return disc::MakeUniformDataset(spec.n, spec.dim, spec.seed);
  }
  return disc::MakeClusteredDataset(spec.n, spec.dim, spec.seed);
}

/// Per-request execution over the public server, session-manager and
/// engine functions, mirroring the event loop's single-command path on one
/// thread (so no request ever finds another in flight).
class Replayer {
 public:
  Replayer(const TraceOptions& options, Tracer* tracer, size_t clients)
      : tracer_(tracer),
        manager_(kIdleEngines),
        pool_(options.engine_threads),
        leases_(clients) {
    ctx_.manager = &manager_;
    ctx_.engine_threads = options.engine_threads;
    ctx_.max_exact_points = options.max_exact_points;
  }

  void Command(size_t client, const std::string& line) {
    tracer_->NewRequest();
    const int root = tracer_->Begin("request");
    disc::Result<disc::Request> request =
        tracer_->Time("protocol.parse", [&] { return disc::ParseRequest(line); });
    if (request.ok()) {
      switch (request->verb) {
        case disc::Verb::kOpen:
          Open(client, line, *request);
          break;
        case disc::Verb::kDiversify:
        case disc::Verb::kZoom:
          if (leases_[client].valid()) Compute(client, *request);
          break;
        case disc::Verb::kClose:
          tracer_->Time("session.release", [&] {
            leases_[client].Release();
            return 0;
          });
          break;
        default:
          break;
      }
    }
    tracer_->End(root);
  }

  void Frame(size_t client, const std::vector<std::string>& lines) {
    tracer_->NewRequest();
    tracer_->Time("batch.frame", [&] {
      return disc::ExecuteBatch(ctx_, lines, &leases_[client], true);
    });
  }

  /// Re-execution time beneath engine calls (excluded from the overhead
  /// comparison: the untraced pass does no re-execution).
  int64_t replay_ns() const { return replay_ns_; }
  const std::vector<double>& replay_shares() const { return replay_shares_; }
  const disc::SpeculationStats& speculation() const { return speculation_; }
  const std::vector<double>& edges_per_point() const { return edges_; }

 private:
  void Open(size_t client, const std::string& line,
            const disc::Request& request) {
    if (leases_[client].valid()) return;
    disc::Result<disc::OpenParams> params = disc::DecodeOpen(request);
    if (!params.ok()) return;
    params->config.threads = ctx_.engine_threads;
    params->config.neighbor.max_exact_points = ctx_.max_exact_points;
    const int acquire = tracer_->Begin("session.acquire");
    const int64_t start = tracer_->Now();
    disc::Result<disc::EngineLease> lease = manager_.Acquire(params->config);
    const int64_t end = tracer_->Now();
    tracer_->End(acquire);
    if (!lease.ok()) return;
    leases_[client] = std::move(lease).value();
    lease_dataset_[client] = line;
    if (!leases_[client].reused() && tracer_->enabled()) {
      // Acquire built the engine: the same interval is the engine's
      // Create, and beneath it the data and index layers re-execute.
      const int create = tracer_->Record("engine.create", start, end, acquire);
      ReplayCreate(line, params->config, create, end - start);
    }
    tracer_->Time("protocol.serialize", [&] {
      return disc::SerializeOpen(leases_[client].engine().Snapshot(),
                                 params->dataset_text,
                                 leases_[client].reused());
    });
  }

  void Compute(size_t client, const disc::Request& request) {
    disc::EngineLease& lease = leases_[client];
    disc::DiscEngine& engine = lease.engine();
    disc::Result<disc::ComputePlan> plan = tracer_->Time(
        "server.plan", [&] { return disc::PlanCompute(request, lease); });
    if (!plan.ok()) return;
    const bool zoom = plan->verb == disc::Verb::kZoom;
    if (plan->flight_key.empty()) {
      // Own-cache hit (or an unpoolable engine): computed locally.
      Run(client, *plan, engine, /*cold=*/false);
      return;
    }
    disc::FlightOutcome cached;
    const disc::FlightJoin join = tracer_->Time("session.join", [&] {
      return manager_.JoinFlight(
          plan->flight_key, [](const disc::FlightOutcome&) {}, &cached,
          plan->adapt_family, plan->diversify.radius);
    });
    if (join == disc::FlightJoin::kCached) {
      if (cached.capsule != nullptr) {
        tracer_->Time("engine.adopt",
                      [&] { return engine.AdoptSession(*cached.capsule); });
      }
      Desync(client);
      return;
    }
    if (join != disc::FlightJoin::kLeader) return;
    if (plan->adapt && !zoom) {
      disc::FlightOutcome seed;
      double seed_radius = 0.0;
      const bool found = tracer_->Time("session.find_seed", [&] {
        return manager_.FindAdaptableSeed(plan->adapt_family,
                                          plan->diversify.radius, &seed,
                                          &seed_radius);
      });
      if (found) {
        plan->seed = std::move(seed.capsule);
        plan->seed_radius = seed_radius;
        manager_.RetractAdaptFlight(plan->flight_key);
      }
    }
    const bool ok = Run(client, *plan, engine, plan->seed == nullptr);
    disc::FlightOutcome outcome;
    if (ok) {
      outcome.capsule = tracer_->Time("engine.export", [&] {
        return std::make_shared<disc::DiscEngine::SessionCapsule>(
            engine.ExportSession());
      });
      if (!zoom && plan->seed == nullptr) {
        outcome.adapt_family = plan->adapt_family;
        outcome.radius = plan->diversify.radius;
      }
    }
    tracer_->Time("session.finish", [&] {
      manager_.FinishFlight(plan->flight_key, std::move(outcome), ok);
      return 0;
    });
  }

  /// Runs the planned engine call and serializes its answer; `cold` marks
  /// a computation the replay re-executes beneath.
  bool Run(size_t client, const disc::ComputePlan& plan,
           disc::DiscEngine& engine, bool cold) {
    const bool zoom = plan.verb == disc::Verb::kZoom;
    const disc::EngineSnapshot before = engine.Snapshot();
    const char* name = plan.seed != nullptr ? "engine.adapt_from"
                       : zoom              ? "engine.zoom"
                                           : "engine.diversify";
    const int span = tracer_->Begin(name);
    const int64_t start = tracer_->Now();
    disc::Result<disc::DiversifyResponse> response =
        [&]() -> disc::Result<disc::DiversifyResponse> {
      if (plan.seed != nullptr) {
        disc::ZoomRequest request;
        request.radius = plan.diversify.radius;
        request.compute_quality = plan.diversify.compute_quality;
        return engine.AdaptFrom(*plan.seed, request);
      }
      if (zoom) return engine.Zoom(plan.zoom);
      return engine.Diversify(plan.diversify);
    }();
    const int64_t took = tracer_->Now() - start;
    tracer_->End(span);
    if (!response.ok()) return false;
    tracer_->Time("protocol.serialize", [&] {
      return plan.seed != nullptr
                 ? disc::SerializeAdaptedResponse(*response, plan.seed_radius)
                 : disc::SerializeDiversifyResponse(plan.verb, *response);
    });
    const bool fresh_counts =
        engine.Snapshot().cached_count_radii > before.cached_count_radii;
    if (!tracer_->enabled() || !cold || response->from_cache) {
      Desync(client);
      return true;
    }
    if (zoom) {
      ReplayZoom(client, plan.zoom.radius, before.radius,
                 before.distances_exact, span, took);
    } else {
      ReplayDiversify(client, plan.diversify, fresh_counts, span, took);
    }
    return true;
  }

  void Desync(size_t client) {
    auto it = shadows_.find(lease_dataset_[client]);
    if (it != shadows_.end() &&
        it->second->synced_client == static_cast<int>(client)) {
      it->second->synced_client = -1;
    }
  }

  /// Times `fn` as a re-execution span under `parent`.
  template <typename Fn>
  void Beneath(const std::string& name, int parent, int64_t* sum, Fn&& fn) {
    const int64_t start = tracer_->Now();
    fn();
    const int64_t end = tracer_->Now();
    tracer_->Record(name, start, end, parent);
    *sum += end - start;
  }

  void ReplayCreate(const std::string& line, const disc::EngineConfig& config,
                    int parent, int64_t engine_ns) {
    auto shadow = std::make_unique<Shadow>();
    int64_t sum = 0;
    Beneath("data.generate", parent, &sum,
            [&] { shadow->dataset = Generate(config); });
    shadow->metric = disc::MakeMetric(config.metric);
    if (config.neighbor.kind == disc::NeighborBackendKind::kExact) {
      Beneath("mtree.build", parent, &sum, [&] {
        shadow->tree = std::make_unique<disc::MTree>(
            shadow->dataset, *shadow->metric, config.tree);
        (void)shadow->tree->Build(&pool_);
      });
    } else {
      Beneath("neighbor.build", parent, &sum, [&] {
        disc::Result<std::unique_ptr<disc::NeighborBackend>> backend =
            disc::CreateNeighborBackend(shadow->dataset, *shadow->metric,
                                        config.neighbor, &pool_);
        if (backend.ok()) shadow->backend = std::move(backend).value();
      });
    }
    AddReplay(sum, engine_ns);
    if (shadows_.find(line) == shadows_.end()) shadows_[line] = std::move(shadow);
  }

  void ReplayDiversify(size_t client, const disc::DiversifyRequest& request,
                       bool fresh_counts, int parent, int64_t engine_ns) {
    auto it = shadows_.find(lease_dataset_[client]);
    if (it == shadows_.end()) return;
    Shadow& shadow = *it->second;
    int64_t sum = 0;
    if (shadow.backend != nullptr) {
      std::unique_ptr<disc::NeighborhoodGraph> graph;
      Beneath("graph.build", parent, &sum, [&] {
        disc::Result<disc::NeighborhoodGraph> built =
            disc::NeighborhoodGraph::FromBackend(*shadow.backend,
                                                 request.radius, &pool_);
        if (built.ok()) {
          graph = std::make_unique<disc::NeighborhoodGraph>(
              std::move(built).value());
        }
      });
      if (graph == nullptr) return;
      edges_.push_back(static_cast<double>(graph->num_edges()) /
                       static_cast<double>(graph->num_vertices()));
      Beneath("core.greedy", parent, &sum, [&] {
        if (request.algorithm == disc::Algorithm::kGreedyC) {
          (void)disc::ReferenceGreedyC(*graph);
        } else {
          (void)disc::ReferenceGreedyDisc(*graph);
        }
      });
      AddReplay(sum, engine_ns);
      return;
    }
    if (shadow.tree == nullptr) return;
    disc::AlgorithmRunOptions options;
    options.pruned = request.pruned;
    options.pool = &pool_;
    if (disc::AlgorithmUsesNeighborCounts(request.algorithm)) {
      // Re-executed (and timed) only when the engine paid for the pass.
      std::vector<uint32_t>& counts = shadow.counts[request.radius];
      auto pass = [&] {
        counts.clear();
        shadow.tree->ComputeNeighborCountsPostBuild(request.radius, &counts,
                                                    &pool_);
      };
      if (fresh_counts) {
        Beneath("mtree.count_pass", parent, &sum, pass);
      } else if (counts.empty()) {
        pass();
      }
      options.initial_counts = &counts;
    }
    disc::DiscResult result;
    Beneath("core.greedy", parent, &sum, [&] {
      result = disc::RunAlgorithm(shadow.tree.get(), request.algorithm,
                                  request.radius, options);
    });
    speculation_ += result.speculation;
    shadow.synced_client = static_cast<int>(client);
    shadow.radius = request.radius;
    AddReplay(sum, engine_ns);
  }

  void ReplayZoom(size_t client, double radius, double session_radius,
                  bool was_exact, int parent, int64_t engine_ns) {
    auto it = shadows_.find(lease_dataset_[client]);
    if (it == shadows_.end()) return;
    Shadow& shadow = *it->second;
    if (shadow.tree == nullptr ||
        shadow.synced_client != static_cast<int>(client) ||
        shadow.radius != session_radius) {
      Desync(client);
      return;
    }
    int64_t sum = 0;
    if (radius < session_radius) {
      Beneath("core.zoom_in", parent, &sum, [&] {
        if (!was_exact) {
          shadow.tree->RecomputeClosestBlackDistances(session_radius);
        }
        (void)disc::ZoomIn(shadow.tree.get(), radius, true, true);
      });
    } else {
      Beneath("core.zoom_out", parent, &sum, [&] {
        (void)disc::ZoomOut(shadow.tree.get(), radius,
                            disc::ZoomOutVariant::kGreedyMostRed);
      });
    }
    shadow.radius = radius;
    AddReplay(sum, engine_ns);
  }

  void AddReplay(int64_t replay_ns, int64_t engine_ns) {
    replay_ns_ += replay_ns;
    if (engine_ns > 0) {
      replay_shares_.push_back(static_cast<double>(replay_ns) /
                               static_cast<double>(engine_ns));
    }
  }

  Tracer* tracer_;
  disc::SessionManager manager_;
  disc::ThreadPool pool_;
  disc::CommandContext ctx_;
  std::vector<disc::EngineLease> leases_;
  std::map<size_t, std::string> lease_dataset_;
  std::map<std::string, std::unique_ptr<Shadow>> shadows_;
  int64_t replay_ns_ = 0;
  std::vector<double> replay_shares_;
  disc::SpeculationStats speculation_;
  std::vector<double> edges_;
};

/// The replay input: each client's first commands, as sent in the timed
/// run (frames of spec.batch_size for the batch workload).
struct Streams {
  std::vector<std::vector<std::vector<std::string>>> units;
};

Streams MakeStreams(const WorkloadSpec& spec, const RunResult& run) {
  Streams streams;
  const size_t length = ReplayLength(spec);
  for (const std::vector<std::string>& sent : run.sent) {
    std::vector<std::vector<std::string>> units;
    const size_t n = std::min(length, sent.size());
    for (size_t i = 0; i < n;) {
      const bool frame = spec.batch_size > 0 && i > 0;
      const size_t take = frame ? std::min(spec.batch_size, n - i) : 1;
      units.emplace_back(sent.begin() + i, sent.begin() + i + take);
      i += take;
    }
    streams.units.push_back(std::move(units));
  }
  return streams;
}

/// One pass over the streams, clients interleaved round-robin. Returns
/// the replayer (its shadows and counters) and the pass's wall time.
std::unique_ptr<Replayer> Pass(const WorkloadSpec& spec,
                               const Streams& streams,
                               const TraceOptions& options, Tracer* tracer,
                               int64_t* elapsed_ns) {
  auto replayer =
      std::make_unique<Replayer>(options, tracer, streams.units.size());
  const Clock::time_point start = Clock::now();
  size_t longest = 0;
  for (const auto& units : streams.units) {
    longest = std::max(longest, units.size());
  }
  for (size_t i = 0; i < longest; ++i) {
    for (size_t c = 0; c < streams.units.size(); ++c) {
      if (i >= streams.units[c].size()) continue;
      const std::vector<std::string>& unit = streams.units[c][i];
      if (spec.batch_size > 0 && i > 0) {
        replayer->Frame(c, unit);
      } else {
        replayer->Command(c, unit.front());
      }
    }
  }
  *elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count();
  return replayer;
}

/// Self time: duration minus the part of it child spans cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, reach = lo;
    for (const auto& [a, b] : kids) {
      const int64_t from = std::max(a, reach), to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return Quantile(std::move(values), 0.5);
}

/// Exercises, on the workload's first dataset, every layer the stream
/// replay did not reach (the session workloads never adopt, the graph
/// workload never touches the M-tree, ...), recording spans only for
/// names still missing.
void Probe(const RunResult& run, const TraceOptions& options, Tracer* tracer,
           std::vector<Metric>* metrics, std::vector<double>* edges,
           disc::SpeculationStats* speculation) {
  std::set<std::string> seen;
  for (const Span& span : tracer->spans()) seen.insert(span.name);
  std::string open_line;
  double radius = 0.03;
  for (const auto& sent : run.sent) {
    for (const std::string& line : sent) {
      if (open_line.empty() && line.rfind("OPEN ", 0) == 0) open_line = line;
      if (line.rfind("DIVERSIFY r=", 0) == 0) {
        radius = std::strtod(line.c_str() + 12, nullptr);
        break;
      }
    }
    if (!open_line.empty()) break;
  }
  disc::Result<disc::Request> request = disc::ParseRequest(open_line);
  if (!request.ok()) return;
  disc::Result<disc::OpenParams> params = disc::DecodeOpen(*request);
  if (!params.ok()) return;
  disc::EngineConfig config = params->config;
  config.threads = options.engine_threads;
  config.neighbor = disc::NeighborBackendOptions{};
  config.neighbor.max_exact_points = options.max_exact_points;
  disc::ThreadPool pool(options.engine_threads);
  const int root = tracer->Begin("probe");
  auto step = [&](const std::string& name, auto&& fn) {
    if (seen.count(name) > 0) {
      fn();
    } else {
      tracer->Time(name, [&] {
        fn();
        return 0;
      });
    }
  };

  disc::Dataset dataset;
  step("data.generate", [&] { dataset = Generate(config); });
  std::unique_ptr<disc::DistanceMetric> metric = disc::MakeMetric(config.metric);
  disc::MTree tree(dataset, *metric, config.tree);
  step("mtree.build", [&] { (void)tree.Build(&pool); });
  std::vector<uint32_t> counts;
  step("mtree.count_pass",
       [&] { tree.ComputeNeighborCountsPostBuild(radius, &counts, &pool); });
  disc::AlgorithmRunOptions run_options;
  run_options.initial_counts = &counts;
  run_options.pool = &pool;
  disc::DiscResult greedy;
  step("core.greedy", [&] {
    greedy = disc::RunAlgorithm(&tree, disc::Algorithm::kGreedy, radius,
                                run_options);
  });
  if (speculation->evaluated == 0) *speculation = greedy.speculation;
  step("core.zoom_in", [&] {
    tree.RecomputeClosestBlackDistances(radius);
    (void)disc::ZoomIn(&tree, 0.7 * radius, true, true);
  });
  step("core.zoom_out", [&] {
    (void)disc::ZoomOut(&tree, 1.4 * radius,
                        disc::ZoomOutVariant::kGreedyMostRed);
  });

  // Layer-level numbers that are not spans.
  std::vector<disc::Neighbor> found;
  const Clock::time_point q0 = Clock::now();
  for (size_t i = 0; i < kRangeProbeQueries; ++i) {
    found.clear();
    tree.RangeQueryAround(
        static_cast<disc::ObjectId>((i * 7919) % dataset.size()), radius,
        disc::QueryFilter::kAll, false, &found);
  }
  const double range_us =
      std::chrono::duration<double, std::micro>(Clock::now() - q0).count() /
      kRangeProbeQueries;
  double sink = 0.0;
  const Clock::time_point d0 = Clock::now();
  for (size_t i = 0; i < kDistanceProbePairs; ++i) {
    sink += metric->Distance(dataset.point(i % dataset.size()),
                             dataset.point((i * 7919 + 1) % dataset.size()));
  }
  const double distance_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - d0).count() /
      kDistanceProbePairs;
  metrics->push_back({"metric.distance_ns", distance_ns + sink * 0.0, "ns"});
  metrics->push_back({"mtree.range_query_us", range_us, "us"});
  metrics->push_back({"mtree.fat_factor", tree.FatFactor(), "ratio"});

  disc::NeighborBackendOptions grid;
  grid.kind = disc::NeighborBackendKind::kGrid;
  std::unique_ptr<disc::NeighborBackend> backend;
  step("neighbor.build", [&] {
    disc::Result<std::unique_ptr<disc::NeighborBackend>> made =
        disc::CreateNeighborBackend(dataset, *metric, grid, &pool);
    if (made.ok()) backend = std::move(made).value();
  });
  if (backend != nullptr) {
    step("graph.build", [&] {
      disc::Result<disc::NeighborhoodGraph> graph =
          disc::NeighborhoodGraph::FromBackend(*backend, radius, &pool);
      if (graph.ok() && edges->empty()) {
        edges->push_back(static_cast<double>(graph->num_edges()) /
                         static_cast<double>(graph->num_vertices()));
      }
    });
  }

  std::unique_ptr<disc::DiscEngine> engine;
  step("engine.create", [&] {
    disc::Result<std::unique_ptr<disc::DiscEngine>> made =
        disc::DiscEngine::Create(config);
    if (made.ok()) engine = std::move(made).value();
  });
  if (engine != nullptr) {
    disc::DiversifyRequest diversify;
    diversify.radius = radius;
    step("engine.diversify", [&] { (void)engine->Diversify(diversify); });
    disc::DiscEngine::SessionCapsule capsule;
    step("engine.export", [&] { capsule = engine->ExportSession(); });
    disc::ZoomRequest zoom;
    zoom.radius = 0.7 * radius;
    step("engine.zoom", [&] { (void)engine->Zoom(zoom); });
    step("engine.adopt", [&] { (void)engine->AdoptSession(capsule); });
    zoom.radius = 1.3 * radius;
    step("engine.adapt_from", [&] { (void)engine->AdaptFrom(capsule, zoom); });
  }

  if (seen.count("batch.frame") == 0) {
    disc::SessionManager manager(kIdleEngines);
    disc::CommandContext ctx;
    ctx.manager = &manager;
    ctx.engine_threads = options.engine_threads;
    ctx.max_exact_points = options.max_exact_points;
    std::vector<std::string> frame;
    for (const std::string& line : run.sent.front()) {
      if (line.rfind("OPEN ", 0) == 0 && !frame.empty()) break;
      frame.push_back(line);
      if (frame.size() == 8) break;
    }
    disc::EngineLease lease;
    tracer->Time("batch.frame", [&] {
      return disc::ExecuteBatch(ctx, frame, &lease, true);
    });
  }
  tracer->End(root);
}

/// HttpParser over each replayed command framed as the HTTP client sends it.
void HttpSpans(const Streams& streams, Tracer* tracer) {
  for (const auto& units : streams.units) {
    for (const auto& unit : units) {
      for (const std::string& command : unit) {
        const size_t space = command.find(' ');
        std::string path = command.substr(0, space);
        path.insert(path.begin(), '/');
        for (char& c : path) c = static_cast<char>(std::tolower(c));
        const std::string body =
            space == std::string::npos ? "" : command.substr(space + 1);
        std::string buffer = "POST " + path +
                             " HTTP/1.1\r\nHost: disc\r\nContent-Type: "
                             "text/plain\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body;
        disc::HttpParser parser;
        disc::HttpRequest request;
        tracer->NewRequest();
        tracer->Time("http.parse",
                     [&] { return parser.Consume(&buffer, &request); });
      }
    }
  }
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":"
                 "%lld,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(out);
}

}  // namespace

TraceResult RunTrace(const WorkloadSpec& spec, const RunResult& run,
                     const TraceOptions& options) {
  TraceResult result;
  const Streams streams = MakeStreams(spec, run);

  Tracer off(false);
  int64_t untraced_ns = 0;
  Pass(spec, streams, options, &off, &untraced_ns);

  Tracer on(true);
  int64_t traced_ns = 0;
  const std::unique_ptr<Replayer> traced =
      Pass(spec, streams, options, &on, &traced_ns);
  const double overhead =
      static_cast<double>(traced_ns - traced->replay_ns() - untraced_ns) /
      static_cast<double>(std::max<int64_t>(1, untraced_ns));
  HttpSpans(streams, &on);
  std::vector<Metric> extra;
  std::vector<double> edges = traced->edges_per_point();
  disc::SpeculationStats speculation = traced->speculation();
  Probe(run, options, &on, &extra, &edges, &speculation);

  const std::vector<Span>& spans = on.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(static_cast<double>(self[i]));
  }
  auto self_median = [&](const char* name, double scale) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : MedianOf(it->second) * scale;
  };
  constexpr double kMs = 1e-6, kUs = 1e-3;
  result.metrics = {
      {"data.generate_ms", self_median("data.generate", kMs), "ms"},
      {"mtree.build_ms", self_median("mtree.build", kMs), "ms"},
      {"mtree.count_pass_ms", self_median("mtree.count_pass", kMs), "ms"},
      {"core.greedy_ms", self_median("core.greedy", kMs), "ms"},
      {"core.zoom_in_ms", self_median("core.zoom_in", kMs), "ms"},
      {"core.zoom_out_ms", self_median("core.zoom_out", kMs), "ms"},
      {"core.speculation_commit_share",
       speculation.evaluated > 0
           ? static_cast<double>(speculation.committed) /
                 static_cast<double>(speculation.evaluated)
           : 0.0,
       "share"},
      {"neighbor.build_ms", self_median("neighbor.build", kMs), "ms"},
      {"graph.build_ms", self_median("graph.build", kMs), "ms"},
      {"graph.edges_per_point", MedianOf(edges), "count"},
      {"engine.create_ms", self_median("engine.create", kMs), "ms"},
      {"engine.diversify_ms", self_median("engine.diversify", kMs), "ms"},
      {"engine.zoom_ms", self_median("engine.zoom", kMs), "ms"},
      {"engine.adapt_from_ms", self_median("engine.adapt_from", kMs), "ms"},
      {"engine.export_ms", self_median("engine.export", kMs), "ms"},
      {"engine.adopt_ms", self_median("engine.adopt", kMs), "ms"},
      {"session.acquire_ms", self_median("session.acquire", kMs), "ms"},
      {"protocol.parse_us", self_median("protocol.parse", kUs), "us"},
      {"protocol.serialize_us", self_median("protocol.serialize", kUs), "us"},
      {"http.parse_us", self_median("http.parse", kUs), "us"},
      {"batch.frame_ms", self_median("batch.frame", kMs), "ms"},
      {"trace.replay_share", MedianOf(traced->replay_shares()), "share"},
      {"trace.overhead_share", overhead, "share"},
  };
  result.metrics.insert(result.metrics.end(), extra.begin(), extra.end());
  result.spans = spans.size();
  WriteSpans(spans, options.out_path);
  return result;
}

}  // namespace servebench
