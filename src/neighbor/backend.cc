#include "neighbor/backend.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "neighbor/exact_backend.h"
#include "neighbor/grid_backend.h"
#include "neighbor/lsh_backend.h"
#include "neighbor/sharded_backend.h"
#include "util/parallel.h"

namespace disc {

namespace {

// Makes every adjacency list symmetric: whenever i lists j but j does not
// list i, j gains i. Lists must be sorted ascending on entry and stay sorted
// on exit. Approximate backends need this — a hash probe from i can find j
// while the probe from j misses i — and a symmetric union only ever ADDS
// true neighbors (every reported id is distance-verified), so recall can
// only improve. Returns the directed entry count after repair.
size_t SymmetrizeAdjacency(AdjacencyLists* adjacency) {
  std::vector<std::pair<ObjectId, ObjectId>> missing;  // (to, add)
  for (ObjectId i = 0; i < adjacency->size(); ++i) {
    for (ObjectId j : (*adjacency)[i]) {
      const auto& back = (*adjacency)[j];
      if (!std::binary_search(back.begin(), back.end(), i)) {
        missing.emplace_back(j, i);
      }
    }
  }
  for (const auto& [to, add] : missing) (*adjacency)[to].push_back(add);
  size_t directed = 0;
  for (auto& list : *adjacency) {
    std::sort(list.begin(), list.end());
    directed += list.size();
  }
  return directed;
}

}  // namespace

const char* NeighborBackendKindToString(NeighborBackendKind kind) {
  switch (kind) {
    case NeighborBackendKind::kExact:
      return "exact";
    case NeighborBackendKind::kGrid:
      return "grid";
    case NeighborBackendKind::kLsh:
      return "lsh";
    case NeighborBackendKind::kSharded:
      return "sharded";
    case NeighborBackendKind::kLshSharded:
      return "lsh-sharded";
  }
  return "unknown";
}

Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name) {
  if (name == "exact") return NeighborBackendKind::kExact;
  if (name == "grid") return NeighborBackendKind::kGrid;
  if (name == "lsh") return NeighborBackendKind::kLsh;
  if (name == "sharded") return NeighborBackendKind::kSharded;
  if (name == "lsh-sharded") return NeighborBackendKind::kLshSharded;
  return Status::InvalidArgument(
      "unknown neighbor backend '" + name +
      "' (want exact, grid, lsh, sharded, or lsh-sharded)");
}

bool NeighborBackendIsExact(NeighborBackendKind kind) {
  return kind != NeighborBackendKind::kLsh &&
         kind != NeighborBackendKind::kLshSharded;
}

std::string NeighborBackendCacheKey(const NeighborBackendOptions& options) {
  std::string key = NeighborBackendKindToString(options.kind);
  const bool sharded = options.kind == NeighborBackendKind::kSharded ||
                       options.kind == NeighborBackendKind::kLshSharded;
  const bool lsh = options.kind == NeighborBackendKind::kLsh ||
                   options.kind == NeighborBackendKind::kLshSharded;
  if (lsh) {
    char knobs[96];
    std::snprintf(knobs, sizeof(knobs), ":t%zu:h%zu:p%zu:w%g:s%llu",
                  options.lsh.tables, options.lsh.hashes, options.lsh.probes,
                  options.lsh.width_factor,
                  static_cast<unsigned long long>(options.lsh.seed));
    key += knobs;
  }
  if (sharded && options.shards != 0) {
    key += ":n" + std::to_string(options.shards);
  }
  return key;
}

void NeighborBackend::RangeQueryAround(ObjectId center, double radius,
                                       std::vector<ObjectId>* out,
                                       AccessStats* sink) const {
  out->clear();
  AccessStats* target = sink != nullptr ? sink : &stats_;
  DoRangeQuery(dataset_.point(center), center, radius, out, target);
  std::sort(out->begin(), out->end());
}

void NeighborBackend::RangeQuery(const Point& center, double radius,
                                 std::vector<ObjectId>* out,
                                 AccessStats* sink) const {
  out->clear();
  AccessStats* target = sink != nullptr ? sink : &stats_;
  DoRangeQuery(center, kInvalidObject, radius, out, target);
  std::sort(out->begin(), out->end());
}

Status NeighborBackend::BuildNeighborhoods(double radius, ThreadPool* pool,
                                           AdjacencyLists* adjacency,
                                           size_t* num_edges) const {
  const size_t n = size();
  adjacency->assign(n, {});
  size_t directed = 0;
  // Adjacency rows are disjoint per object, so chunks write them in place;
  // accounting goes to per-chunk sinks summed into stats() in chunk order
  // (exact integer totals at any thread count).
  struct ChunkResult {
    AccessStats stats;
    size_t directed_edges = 0;
  };
  ParallelOrderedReduce<ChunkResult>(
      pool, 0, n, RecommendedGrain(n, pool),
      [&](size_t chunk_begin, size_t chunk_end) {
        ChunkResult result;
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          RangeQueryAround(static_cast<ObjectId>(i), radius, &(*adjacency)[i],
                           &result.stats);
          result.directed_edges += (*adjacency)[i].size();
        }
        return result;
      },
      [&](ChunkResult& result) {
        stats_ += result.stats;
        directed += result.directed_edges;
      });
  if (!exact()) directed = SymmetrizeAdjacency(adjacency);
  if (num_edges != nullptr) *num_edges = directed / 2;
  return Status::OK();
}

Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* pool) {
  const size_t n = dataset.size();
  const bool capped = options.max_exact_points > 0;
  switch (options.kind) {
    case NeighborBackendKind::kExact: {
      if (capped && n > options.max_exact_points) {
        return Status::InvalidArgument(
            "dataset has " + std::to_string(n) +
            " points, above the exact-backend cap of " +
            std::to_string(options.max_exact_points) +
            "; use the sharded, lsh, or lsh-sharded neighbor backend");
      }
      auto backend = ExactMTreeBackend::Create(dataset, metric);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
    case NeighborBackendKind::kGrid: {
      // When the grid does not apply, every batched build degrades to the
      // O(n^2) scan — exactly the silent-fallback OOM the cap guards.
      if (capped && n > options.max_exact_points &&
          !GridCompatible(metric, dataset.dim(), n)) {
        return Status::InvalidArgument(
            "grid backend would fall back to the O(n^2) scan (" +
            std::string(metric.name()) + " metric, dim " +
            std::to_string(dataset.dim()) + ") over " + std::to_string(n) +
            " points, above the cap of " +
            std::to_string(options.max_exact_points) +
            "; use the sharded, lsh, or lsh-sharded neighbor backend");
      }
      return std::unique_ptr<NeighborBackend>(
          std::make_unique<GridBackend>(dataset, metric));
    }
    case NeighborBackendKind::kLsh: {
      if (metric.kind() == MetricKind::kHamming) {
        return Status::InvalidArgument(
            "lsh neighbor backend does not support the hamming metric "
            "(no p-stable projection for unordered categories); use exact "
            "or sharded");
      }
      return std::unique_ptr<NeighborBackend>(
          std::make_unique<LshBackend>(dataset, metric, options.lsh));
    }
    case NeighborBackendKind::kSharded:
    case NeighborBackendKind::kLshSharded: {
      if (options.kind == NeighborBackendKind::kLshSharded &&
          metric.kind() == MetricKind::kHamming) {
        return Status::InvalidArgument(
            "lsh-sharded neighbor backend does not support the hamming "
            "metric (no p-stable projection for unordered categories); use "
            "exact or sharded");
      }
      auto backend = ShardedBackend::Create(dataset, metric, options, pool);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
  }
  return Status::InvalidArgument("unknown neighbor backend kind");
}

}  // namespace disc
