// Property tests for the pluggable neighbor backends (neighbor/backend.h).
//
// The contracts under test:
//  * exact family (exact, grid, sharded-with-exact-shards): the adjacency
//    structure is byte-identical to the reference O(n^2) scan, and its
//    accounting is identical, at every thread count — sharding and fan-out
//    may not change a single id or counter;
//  * LSH family: deterministic for a fixed seed, always a SUBSET of the true
//    neighbor sets (candidates are distance-verified), and recall on the
//    paper workloads clears the documented default-config floor;
//  * lsh-sharded equals unsharded lsh byte-for-byte (same seed per shard);
//  * an LSH backend holds the index of the latest radius only, and a
//    concurrent query at another radius never frees an index in use;
//  * the exact-family guardrail refuses datasets above max_exact_points
//    with InvalidArgument instead of risking the O(n^2) fallback;
//  * stats accounting: one range_queries unit per logical query regardless
//    of shard fan-out.

#include "neighbor/backend.h"

#include <gtest/gtest.h>

#include <memory>
#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "eval/neighbor_eval.h"
#include "graph/neighborhood.h"
#include "metric/metric.h"
#include "neighbor/adjacency.h"
#include "neighbor/lsh_backend.h"
#include "neighbor/sharded_backend.h"
#include "util/parallel.h"

namespace disc {
namespace {

NeighborBackendOptions Options(NeighborBackendKind kind, size_t shards = 0) {
  NeighborBackendOptions options;
  options.kind = kind;
  options.shards = shards;
  return options;
}

std::unique_ptr<NeighborBackend> MustCreate(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* pool = nullptr) {
  auto backend = CreateNeighborBackend(dataset, metric, options, pool);
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return backend.ok() ? std::move(backend).value() : nullptr;
}

AdjacencyLists BuildLists(const NeighborBackend& backend, double radius,
                          ThreadPool* pool = nullptr) {
  AdjacencyLists adjacency;
  size_t edges = 0;
  Status status = backend.BuildNeighborhoods(radius, pool, &adjacency, &edges);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return adjacency;
}

/// The ground-truth adjacency structure: the reference O(n^2) scan, which
/// no backend's index or grid takes part in.
AdjacencyLists OracleLists(const Dataset& dataset,
                           const DistanceMetric& metric, double radius) {
  AdjacencyLists lists(dataset.size());
  BuildAdjacencyBruteForce(dataset, metric, radius, nullptr, &lists);
  for (auto& list : lists) std::sort(list.begin(), list.end());
  return lists;
}

// ---------------------------------------------------------------------------
// Names and cache keys
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, KindNamesRoundTripThroughParse) {
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
        NeighborBackendKind::kLsh, NeighborBackendKind::kSharded,
        NeighborBackendKind::kLshSharded}) {
    auto parsed = ParseNeighborBackendKind(NeighborBackendKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, kind);
  }
  auto bogus = ParseNeighborBackendKind("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bogus.status().message().find("lsh-sharded"), std::string::npos)
      << bogus.status().ToString();
}

TEST(NeighborBackendTest, ExactnessPredicateMatchesTheLshFamily) {
  EXPECT_TRUE(NeighborBackendIsExact(NeighborBackendKind::kExact));
  EXPECT_TRUE(NeighborBackendIsExact(NeighborBackendKind::kGrid));
  EXPECT_TRUE(NeighborBackendIsExact(NeighborBackendKind::kSharded));
  EXPECT_FALSE(NeighborBackendIsExact(NeighborBackendKind::kLsh));
  EXPECT_FALSE(NeighborBackendIsExact(NeighborBackendKind::kLshSharded));
}

TEST(NeighborBackendTest, CacheKeyCarriesEveryResultChangingKnob) {
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kExact)),
            "exact");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kGrid)),
            "grid");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kLsh)),
            "lsh:t6:h4:p8:w4:s42");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kSharded)),
            "sharded");
  EXPECT_EQ(
      NeighborBackendCacheKey(Options(NeighborBackendKind::kSharded, 8)),
      "sharded:n8");
  NeighborBackendOptions tuned = Options(NeighborBackendKind::kLshSharded, 4);
  tuned.lsh.tables = 3;
  tuned.lsh.seed = 7;
  EXPECT_EQ(NeighborBackendCacheKey(tuned), "lsh-sharded:t3:h4:p8:w4:s7:n4");
}

TEST(NeighborBackendTest, DefaultShardCountIsAPureFunctionOfN) {
  EXPECT_EQ(ShardedBackend::DefaultShardCount(100), 2u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(4096), 4u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(32768), 8u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(262144), 16u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(1000000), 16u);
}

// ---------------------------------------------------------------------------
// Exact family: byte-identical to the reference scan at every thread count
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, ExactFamilyMatchesGraphLayerAtEveryThreadCount) {
  const Dataset dataset = MakeClusteredDataset(1200, 2, 17);
  EuclideanMetric metric;
  const double radius = 0.05;
  const AdjacencyLists oracle = OracleLists(dataset, metric, radius);

  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
        NeighborBackendKind::kSharded}) {
    auto backend = MustCreate(dataset, metric, Options(kind));
    ASSERT_NE(backend, nullptr);
    AccessStats one_thread;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      std::unique_ptr<ThreadPool> pool =
          threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
      backend->ResetStats();
      AdjacencyLists lists = BuildLists(*backend, radius, pool.get());
      EXPECT_EQ(lists, oracle)
          << NeighborBackendKindToString(kind) << " at " << threads
          << " threads diverged from the reference scan";
      // Per-chunk sinks summed in chunk order: the accounting of a build is
      // the same at every thread count, down to the last node access.
      if (threads == 1) {
        one_thread = backend->stats();
        EXPECT_EQ(one_thread.range_queries, dataset.size())
            << NeighborBackendKindToString(kind);
      } else {
        EXPECT_EQ(backend->stats(), one_thread)
            << NeighborBackendKindToString(kind) << " at " << threads
            << " threads charged different stats";
      }
    }
  }
}

TEST(NeighborBackendTest, FromBackendReproducesDirectGraphForExactKinds) {
  const Dataset dataset = MakeUniformDataset(800, 3, 5);
  EuclideanMetric metric;
  const double radius = 0.12;
  const AdjacencyLists direct = OracleLists(dataset, metric, radius);
  size_t direct_edges = 0;
  for (const auto& list : direct) direct_edges += list.size();
  direct_edges /= 2;

  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
        NeighborBackendKind::kSharded}) {
    auto backend = MustCreate(dataset, metric, Options(kind));
    ASSERT_NE(backend, nullptr);
    auto graph = NeighborhoodGraph::FromBackend(*backend, radius);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ASSERT_EQ(graph->num_vertices(), direct.size());
    EXPECT_EQ(graph->num_edges(), direct_edges);
    for (ObjectId v = 0; v < direct.size(); ++v) {
      ASSERT_EQ(graph->neighbors(v), direct[v])
          << NeighborBackendKindToString(kind) << " vertex " << v;
    }
  }
}

TEST(NeighborBackendTest, RangeQueryAroundExcludesCenterAndSorts) {
  const Dataset dataset = MakeGridDataset(10);  // 100 points, spacing 1/9
  EuclideanMetric metric;
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
        NeighborBackendKind::kSharded}) {
    auto backend = MustCreate(dataset, metric, Options(kind, 4));
    ASSERT_NE(backend, nullptr);
    backend->ResetStats();
    std::vector<ObjectId> out;
    backend->RangeQueryAround(55, 0.115, &out);  // axis neighbors only
    EXPECT_EQ(out, (std::vector<ObjectId>{45, 54, 56, 65}))
        << NeighborBackendKindToString(kind);
    if (kind == NeighborBackendKind::kGrid) {
      // A grid point query is one exact scan: per call, one range query,
      // one node access, and a distance to every object but the center.
      backend->RangeQueryAround(55, 0.115, &out);
      AccessStats expected;
      expected.range_queries = 2;
      expected.node_accesses = 2;
      expected.distance_computations = 2 * (dataset.size() - 1);
      EXPECT_EQ(backend->stats(), expected);
    }
  }
}

TEST(NeighborBackendTest, ShardFanOutChargesOneRangeQueryPerCall) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  auto backend =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kSharded, 6));
  ASSERT_NE(backend, nullptr);
  backend->ResetStats();
  std::vector<ObjectId> out;
  backend->RangeQueryAround(0, 0.05, &out);
  backend->RangeQueryAround(1, 0.05, &out);
  EXPECT_EQ(backend->stats().range_queries, 2u)
      << "fan-out across 6 shards must still count as one logical query";
}

// ---------------------------------------------------------------------------
// LSH family: determinism, subset-of-truth, recall, sharding transparency
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, LshIsDeterministicForAFixedSeed) {
  const Dataset dataset = MakeClusteredDataset(1500, 2, 23);
  EuclideanMetric metric;
  const double radius = 0.04;
  auto first = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  auto second =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(BuildLists(*first, radius), BuildLists(*second, radius));

  NeighborBackendOptions reseeded = Options(NeighborBackendKind::kLsh);
  reseeded.lsh.seed = 1234;
  auto other = MustCreate(dataset, metric, reseeded);
  ASSERT_NE(other, nullptr);
  // The graphs themselves may coincide (both seeds can reach full recall on
  // an easy workload), so seed sensitivity is asserted where it is a hard
  // invariant: the memo identity, and the work the hash family induces.
  EXPECT_NE(NeighborBackendCacheKey(Options(NeighborBackendKind::kLsh)),
            NeighborBackendCacheKey(reseeded));
  first->ResetStats();
  other->ResetStats();
  BuildLists(*first, radius);
  BuildLists(*other, radius);
  EXPECT_NE(first->stats().distance_computations,
            other->stats().distance_computations)
      << "a different hash family must induce different candidate sets";
}

TEST(NeighborBackendTest, LshReportsOnlyTrueNeighborsAndClearsRecallFloor) {
  const Dataset dataset = MakeClusteredDataset(2000, 2, 42);
  EuclideanMetric metric;
  const double radius = 0.04;
  const AdjacencyLists oracle = OracleLists(dataset, metric, radius);
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(lsh, nullptr);
  const AdjacencyLists lists = BuildLists(*lsh, radius);

  AdjacencyComparison comparison = CompareAdjacency(oracle, lists);
  EXPECT_EQ(comparison.false_edges, 0u)
      << "distance verification must keep every reported edge true";
  EXPECT_GE(comparison.recall, 0.9)
      << "default LSH config under the documented floor: "
      << comparison.missing_edges << "/" << comparison.oracle_edges
      << " edges missed";
}

TEST(NeighborBackendTest, LshShardedEqualsUnshardedLshByteForByte) {
  const Dataset dataset = MakeClusteredDataset(1800, 2, 11);
  EuclideanMetric metric;
  const double radius = 0.045;
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  auto sharded = MustCreate(dataset, metric,
                            Options(NeighborBackendKind::kLshSharded, 4));
  ASSERT_NE(lsh, nullptr);
  ASSERT_NE(sharded, nullptr);
  // Same seed => same hash family in every shard => identical unions; the
  // property that makes the shard count a pure capacity knob.
  EXPECT_EQ(BuildLists(*lsh, radius), BuildLists(*sharded, radius));
}

TEST(NeighborBackendTest, LshAdjacencyIsSymmetric) {
  const Dataset dataset = MakeUniformDataset(1000, 2, 31);
  EuclideanMetric metric;
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(lsh, nullptr);
  const AdjacencyLists lists = BuildLists(*lsh, 0.05);
  for (ObjectId i = 0; i < lists.size(); ++i) {
    for (ObjectId j : lists[i]) {
      EXPECT_TRUE(std::binary_search(lists[j].begin(), lists[j].end(), i))
          << "edge " << i << "->" << j << " has no reverse entry";
    }
  }
}

TEST(NeighborBackendTest, LshKeepsOnlyTheLatestRadiusIndex) {
  const Dataset dataset = MakeClusteredDataset(300, 2, 19);
  EuclideanMetric metric;
  const LshOptions options;
  LshBackend lsh(dataset, metric, options);
  EXPECT_EQ(lsh.bucket_entries(), 0u);
  // One table holds every object once, so a live index is tables * n
  // entries; a pooled engine serving many radii must not grow past that.
  const size_t one_index = options.tables * dataset.size();
  for (double radius : {0.05, 0.07, 0.09, 0.05}) {
    AdjacencyLists adjacency;
    ASSERT_TRUE(lsh.BuildNeighborhoods(radius, nullptr, &adjacency, nullptr)
                    .ok());
    EXPECT_EQ(lsh.bucket_entries(), one_index) << "after radius " << radius;
  }
  // A rebuilt index is the same pure function of (seed, dim, radius).
  LshBackend fresh(dataset, metric, options);
  EXPECT_EQ(BuildLists(lsh, 0.07), BuildLists(fresh, 0.07));
}

TEST(NeighborBackendTest, LshQueriesAtTwoRadiiConcurrentlyMatchSerial) {
  const Dataset dataset = MakeClusteredDataset(200, 2, 29);
  EuclideanMetric metric;
  const LshOptions options;
  const double radii[2] = {0.05, 0.08};
  // Expected answers from a backend no other thread touches.
  LshBackend reference(dataset, metric, options);
  std::vector<std::vector<ObjectId>> expected[2];
  for (int r = 0; r < 2; ++r) {
    for (ObjectId id = 0; id < dataset.size(); ++id) {
      std::vector<ObjectId> out;
      reference.RangeQueryAround(id, radii[r], &out);
      expected[r].push_back(std::move(out));
    }
  }
  // Two threads alternate the held index between the radii; each query
  // keeps the index it reads alive, so every answer stays exact.
  LshBackend shared(dataset, metric, options);
  bool match[2] = {true, true};
  auto run = [&](int r) {
    AccessStats sink;
    std::vector<ObjectId> out;
    for (int pass = 0; pass < 3; ++pass) {
      for (ObjectId id = 0; id < dataset.size(); ++id) {
        shared.RangeQueryAround(id, radii[r], &out, &sink);
        if (out != expected[r][id]) match[r] = false;
      }
    }
  };
  std::thread other(run, 1);
  run(0);
  other.join();
  EXPECT_TRUE(match[0]);
  EXPECT_TRUE(match[1]);
}

TEST(NeighborBackendTest, LshRejectsTheHammingMetric) {
  const Dataset dataset = MakeUniformDataset(50, 4, 1);
  HammingMetric metric;
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kLsh, NeighborBackendKind::kLshSharded}) {
    auto backend = CreateNeighborBackend(dataset, metric, Options(kind));
    ASSERT_FALSE(backend.ok()) << NeighborBackendKindToString(kind);
    EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// The exact-family guardrail
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, ExactBackendRefusesDatasetsAboveTheCap) {
  const Dataset dataset = MakeUniformDataset(500, 2, 2);
  EuclideanMetric metric;
  NeighborBackendOptions capped = Options(NeighborBackendKind::kExact);
  capped.max_exact_points = 499;
  auto backend = CreateNeighborBackend(dataset, metric, capped);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(backend.status().message().find("lsh-sharded"), std::string::npos)
      << backend.status().ToString();

  // The sharded and LSH kinds are the supported way past the cap.
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kSharded, NeighborBackendKind::kLsh,
        NeighborBackendKind::kLshSharded}) {
    NeighborBackendOptions exempt = Options(kind);
    exempt.max_exact_points = 499;
    EXPECT_NE(MustCreate(dataset, metric, exempt), nullptr)
        << NeighborBackendKindToString(kind);
  }
}

TEST(NeighborBackendTest, GridBackendCapAppliesOnlyWhenGridCannotApply) {
  EuclideanMetric euclidean;
  // 2-D Euclidean: the grid accelerator applies, so the cap is moot.
  const Dataset flat = MakeUniformDataset(600, 2, 4);
  NeighborBackendOptions capped = Options(NeighborBackendKind::kGrid);
  capped.max_exact_points = 100;
  EXPECT_NE(MustCreate(flat, euclidean, capped), nullptr);

  // Dim 4 keeps the grid out; the same cap now refuses the O(n^2) fallback.
  const Dataset wide = MakeUniformDataset(600, 4, 4);
  auto refused = CreateNeighborBackend(wide, euclidean, capped);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace disc
