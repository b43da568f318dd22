// Parallel neighborhood construction: the threads-matrix benchmark.
//
// CI runs this binary twice — DISC_THREADS=1 and DISC_THREADS=4 — and
// gates two properties across the legs (bench/diff_bench_json.py):
//   * determinism: every counter reported here (edges, node accesses,
//     range queries, count checksums) must be bit-identical across legs;
//   * speedup: the 4-thread leg must win graph-build wall time by >= 1.5x
//     at n >= 10k on the brute-force path (pure distance compute, the one
//     whose scaling is machine-independent enough to hard-gate; the grid,
//     index, and counts passes are reported for trend watching but not
//     gated — they are memory/allocator-bound and noisier on CI runners).
//
// The benchmarks cover G_P,r builds through the grid backend (its scan and
// grid builders) and the exact M-tree backend, the engine's
// neighborhood-count pass, and the general range-query path — each one
// ordered reduction on util/parallel.h.
// Wall times land in google-benchmark's real_time; the deterministic
// counters double as the cross-leg identity proof.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "graph/neighborhood.h"
#include "neighbor/exact_backend.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

// The matrix leg this process runs: worker threads for every parallel pass.
size_t BenchThreads() {
  static const size_t threads = [] {
    const char* env = std::getenv("DISC_THREADS");
    if (env == nullptr) return size_t{1};
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed > 0 ? static_cast<size_t>(parsed) : size_t{1};
  }();
  return threads;
}

// One pool for the whole binary (workers persist across benchmarks, like a
// served engine's pool). Null at 1 thread, so the passes run their chunks
// in order on the calling thread.
ThreadPool* BenchPool() {
  static ThreadPool* pool =
      BenchThreads() > 1 ? new ThreadPool(BenchThreads()) : nullptr;
  return pool;
}

// The leg's thread count is deliberately NOT a table column: the cross-leg
// identity gate keys rows by their labels, and both legs must produce the
// same keys (the leg is ambient — DISC_THREADS — and wall time lives in
// the *_ms column, which the deterministic gate ignores).
TableCollector* ParallelTable() {
  static TableCollector table(
      "Parallel neighborhood construction (threads from DISC_THREADS)",
      "parallel_build.csv", {"pass", "n", "build_ms", "edges",
                             "node_accesses"});
  return &table;
}

void AddParallelRow(const char* pass, size_t n, double ms, uint64_t edges,
                    uint64_t node_accesses) {
  ParallelTable()->AddRow({pass, std::to_string(n), FormatDouble(ms, 4),
                           std::to_string(edges),
                           std::to_string(node_accesses)});
}

// O(n^2) path: dim 4 keeps the grid accelerator out. The chunky workload
// the speedup gate measures.
void BM_GraphBrute(benchmark::State& state, size_t n) {
  Dataset dataset = MakeUniformDataset(n, 4, 42);
  EuclideanMetric metric;
  const double radius = 0.35;
  double ms = 0.0;
  uint64_t edges = 0;
  for (auto _ : state) {
    Stopwatch watch;
    NeighborhoodGraph graph(dataset, metric, radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = graph.num_edges();
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.counters["edges"] = static_cast<double>(edges);
  AddParallelRow("brute", n, ms, edges, 0);
}

// Grid path: the default for the paper's 2-D workloads.
void BM_GraphGrid(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t edges = 0;
  for (auto _ : state) {
    Stopwatch watch;
    NeighborhoodGraph graph(dataset, Euclidean(), radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = graph.num_edges();
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.counters["edges"] = static_cast<double>(edges);
  AddParallelRow("grid", n, ms, edges, 0);
}

// Index-backed path (one range query per object) through the exact backend
// over a bulk-loaded tree; node accesses must be bit-identical across legs
// (per-chunk sinks summed).
void BM_GraphIndex(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTreeOptions options;
  options.build.strategy = BuildStrategy::kBulkLoad;
  auto backend = ExactMTreeBackend::Create(dataset, Euclidean(), options);
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t edges = 0;
  for (auto _ : state) {
    (*backend)->ResetStats();
    Stopwatch watch;
    auto graph =
        NeighborhoodGraph::FromBackend(**backend, radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = graph.ok() ? graph->num_edges() : 0;
    benchmark::DoNotOptimize(edges);
  }
  const AccessStats& stats = (*backend)->stats();
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["node_accesses"] = static_cast<double>(stats.node_accesses);
  state.counters["range_queries"] = static_cast<double>(stats.range_queries);
  AddParallelRow("index", n, ms, edges, stats.node_accesses);
}

// The engine's CountsForRadius pass (Greedy-DisC initialization): one range
// query per object, counts checksummed and every access counter reported
// for the cross-leg identity gate.
void BM_Counts(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTree* tree = CachedTree(dataset, Euclidean());
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t checksum = 0;
  std::vector<uint32_t> counts;
  for (auto _ : state) {
    tree->ResetStats();
    Stopwatch watch;
    tree->ComputeNeighborCountsPostBuild(radius, &counts, BenchPool());
    ms = watch.ElapsedMillis();
    checksum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      checksum += counts[i] * (i + 1);  // order-sensitive checksum
    }
    benchmark::DoNotOptimize(checksum);
  }
  const AccessStats& stats = tree->stats();
  state.counters["counts_checksum"] = static_cast<double>(checksum);
  state.counters["node_accesses"] = static_cast<double>(stats.node_accesses);
  state.counters["distance_computations"] =
      static_cast<double>(stats.distance_computations);
  state.counters["range_queries"] = static_cast<double>(stats.range_queries);
  AddParallelRow("counts", n, ms, 0, stats.node_accesses);
}

// The general query path that greedy, zoom and the exact backend run:
// RangeQueryAround around every object, once unfiltered and once pruned
// white-only with the leaf-order first half greyed, so both the plain and
// the white-gated leaf scans are timed. Chunks count under private sinks
// summed in chunk order, so every counter is identical at any thread count.
// The table's `edges` column holds the number of reported neighbors; an
// order-sensitive checksum over their ids and distance bits pins the
// neighbor lists themselves.
void BM_Queries(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTree* tree = CachedTree(dataset, Euclidean());
  const double radius = 0.03;
  const std::vector<ObjectId> order = tree->LeafOrder();
  for (size_t i = 0; i < order.size() / 2; ++i) {
    tree->SetColor(order[i], Color::kGrey);
  }
  struct Tally {
    AccessStats stats;
    uint64_t neighbors = 0;
    uint64_t checksum = 0;
  };
  double ms = 0.0;
  Tally total;
  for (auto _ : state) {
    total = Tally{};
    Stopwatch watch;
    for (const bool white_only : {false, true}) {
      ParallelOrderedReduce<Tally>(
          BenchPool(), 0, n, RecommendedGrain(n, BenchPool()),
          [&](size_t chunk_begin, size_t chunk_end) {
            Tally local;
            std::vector<Neighbor> found;
            for (size_t id = chunk_begin; id < chunk_end; ++id) {
              found.clear();
              tree->RangeQueryAround(
                  static_cast<ObjectId>(id), radius,
                  white_only ? QueryFilter::kWhiteOnly : QueryFilter::kAll,
                  /*pruned=*/white_only, &found, /*trace=*/nullptr,
                  &local.stats);
              local.neighbors += found.size();
              for (size_t k = 0; k < found.size(); ++k) {
                local.checksum +=
                    (k + 1) * ((uint64_t{found[k].id} + 1) ^
                               std::bit_cast<uint64_t>(found[k].dist));
              }
            }
            return local;
          },
          [&](Tally& local) {
            total.stats += local.stats;
            total.neighbors += local.neighbors;
            total.checksum += local.checksum;
          });
    }
    ms = watch.ElapsedMillis();
  }
  tree->ResetColors();
  state.counters["neighbors"] = static_cast<double>(total.neighbors);
  // Top 52 bits: exactly representable in the double-valued counter.
  state.counters["neighbors_checksum"] =
      static_cast<double>(total.checksum >> 12);
  state.counters["node_accesses"] =
      static_cast<double>(total.stats.node_accesses);
  state.counters["distance_computations"] =
      static_cast<double>(total.stats.distance_computations);
  state.counters["range_queries"] =
      static_cast<double>(total.stats.range_queries);
  AddParallelRow("queries", n, ms, total.neighbors,
                 total.stats.node_accesses);
}

[[maybe_unused]] const bool registered = [] {
  const size_t kSizes[] = {10000, 20000};
  for (size_t n : kSizes) {
    for (auto& [name, fn] :
         {std::pair<const char*, void (*)(benchmark::State&, size_t)>{
              "GraphBrute", BM_GraphBrute},
          {"GraphGrid", BM_GraphGrid},
          {"GraphIndex", BM_GraphIndex},
          {"Counts", BM_Counts},
          {"Queries", BM_Queries}}) {
      std::string bench_name =
          "Parallel/" + std::string(name) + "/n=" + std::to_string(n);
      auto* fn_copy = fn;
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [fn_copy, n](benchmark::State& state) { fn_copy(state, n); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
