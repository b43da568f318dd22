#include "mtree/mtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "metric/metric.h"
#include "util/parallel.h"
#include "util/random.h"

namespace disc {
namespace {

std::vector<ObjectId> SortedIds(std::vector<Neighbor> neighbors) {
  std::vector<ObjectId> ids;
  ids.reserve(neighbors.size());
  for (const Neighbor& nb : neighbors) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ObjectId> BruteForceRange(const Dataset& d,
                                      const DistanceMetric& metric,
                                      const Point& center, double radius,
                                      ObjectId exclude = kInvalidObject) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (i == exclude) continue;
    if (metric.Distance(center, d.point(i)) <= radius) ids.push_back(i);
  }
  return ids;
}

TEST(MTreeBuildTest, EmptyDatasetRejected) {
  Dataset d;
  EuclideanMetric metric;
  MTree tree(d, metric);
  Status s = tree.Build();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MTreeBuildTest, TinyCapacityRejected) {
  Dataset d = MakeUniformDataset(10, 2, 1);
  EuclideanMetric metric;
  MTreeOptions options;
  options.node_capacity = 1;
  MTree tree(d, metric, options);
  Status s = tree.Build();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MTreeBuildTest, DoubleBuildRejected) {
  Dataset d = MakeUniformDataset(10, 2, 1);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  Status s = tree.Build();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(MTreeBuildTest, SingleObjectTree) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.5, 0.5}).ok());
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.LeafOrder(), std::vector<ObjectId>{0});
}

TEST(MTreeBuildTest, StructurallyValidAfterManySplits) {
  Dataset d = MakeUniformDataset(2000, 2, 42);
  EuclideanMetric metric;
  MTreeOptions options;
  options.node_capacity = 8;  // force deep tree
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_GT(tree.height(), 2u);
  EXPECT_GT(tree.num_nodes(), 100u);
}

TEST(MTreeBuildTest, LeafOrderIsAPermutation) {
  Dataset d = MakeClusteredDataset(777, 2, 3);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<ObjectId> order = tree.LeafOrder();
  ASSERT_EQ(order.size(), d.size());
  std::set<ObjectId> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), d.size());
}

TEST(MTreeBuildTest, BuildCountsAccesses) {
  Dataset d = MakeUniformDataset(500, 2, 7);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_GT(tree.stats().node_accesses, 500u);  // at least one per insert
  tree.ResetStats();
  EXPECT_EQ(tree.stats().node_accesses, 0u);
}

class MTreePolicyTest : public ::testing::TestWithParam<SplitPolicy> {};

TEST_P(MTreePolicyTest, ValidUnderEveryPolicyAndCapacity) {
  EuclideanMetric metric;
  for (size_t capacity : {3u, 5u, 25u, 50u}) {
    Dataset d = MakeClusteredDataset(600, 2, 11);
    MTreeOptions options;
    options.node_capacity = capacity;
    options.split_policy = GetParam();
    MTree tree(d, metric, options);
    ASSERT_TRUE(tree.Build().ok());
    EXPECT_TRUE(tree.Validate().ok())
        << "capacity " << capacity << ": " << tree.Validate().ToString();
  }
}

TEST_P(MTreePolicyTest, RangeQueriesExactUnderEveryPolicy) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(400, 2, 13);
  MTreeOptions options;
  options.node_capacity = 10;
  options.split_policy = GetParam();
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  for (ObjectId center : {0u, 17u, 100u, 399u}) {
    for (double radius : {0.01, 0.05, 0.2, 0.7}) {
      found.clear();
      tree.RangeQueryAround(center, radius, QueryFilter::kAll, false, &found);
      EXPECT_EQ(SortedIds(found),
                BruteForceRange(d, metric, d.point(center), radius, center));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MTreePolicyTest,
    ::testing::Values(SplitPolicy::MinOverlap(),
                      SplitPolicy::MaxDistanceSplit(),
                      SplitPolicy::BalancedSplit(), SplitPolicy::RandomSplit()),
    [](const ::testing::TestParamInfo<SplitPolicy>& param_info) -> std::string {
      switch (param_info.index) {
        case 0:
          return "MinOverlap";
        case 1:
          return "MaxDistance";
        case 2:
          return "Balanced";
        default:
          return "Random";
      }
    });

TEST(MTreeQueryTest, RangeQueryMatchesBruteForceManhattan) {
  ManhattanMetric metric;
  Dataset d = MakeUniformDataset(300, 2, 19);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  for (double radius : {0.05, 0.15, 0.4}) {
    found.clear();
    tree.RangeQuery(d.point(5), radius, QueryFilter::kAll, false, &found);
    EXPECT_EQ(SortedIds(found),
              BruteForceRange(d, metric, d.point(5), radius));
  }
}

TEST(MTreeQueryTest, RangeQueryHammingCategorical) {
  HammingMetric metric;
  Dataset d;
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(d.Add(Point{static_cast<double>(rng.UniformInt(4)),
                            static_cast<double>(rng.UniformInt(4)),
                            static_cast<double>(rng.UniformInt(4)),
                            static_cast<double>(rng.UniformInt(4))})
                    .ok());
  }
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok());
  std::vector<Neighbor> found;
  for (double radius : {1.0, 2.0, 3.0}) {
    found.clear();
    tree.RangeQueryAround(42, radius, QueryFilter::kAll, false, &found);
    EXPECT_EQ(SortedIds(found),
              BruteForceRange(d, metric, d.point(42), radius, 42));
  }
}

TEST(MTreeQueryTest, ReportedDistancesAreCorrect) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(200, 2, 23);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  tree.RangeQueryAround(7, 0.3, QueryFilter::kAll, false, &found);
  for (const Neighbor& nb : found) {
    EXPECT_NEAR(nb.dist, metric.Distance(d.point(7), d.point(nb.id)), 1e-12);
  }
}

TEST(MTreeQueryTest, WhiteFilterReturnsOnlyWhites) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(300, 2, 29);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  // Grey out every even object.
  for (ObjectId i = 0; i < d.size(); i += 2) tree.SetColor(i, Color::kGrey);
  std::vector<Neighbor> found;
  tree.RangeQueryAround(1, 0.4, QueryFilter::kWhiteOnly, false, &found);
  std::vector<ObjectId> expected;
  for (ObjectId i :
       BruteForceRange(d, metric, d.point(1), 0.4, 1)) {
    if (i % 2 == 1) expected.push_back(i);
  }
  EXPECT_EQ(SortedIds(found), expected);
}

TEST(MTreeQueryTest, PrunedWhiteQueryEqualsUnprunedWhiteQuery) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(500, 2, 31);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  Random rng(8);
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (rng.Uniform01() < 0.7) tree.SetColor(i, Color::kGrey);
  }
  std::vector<Neighbor> pruned, unpruned;
  for (ObjectId center : {3u, 99u, 400u}) {
    pruned.clear();
    unpruned.clear();
    tree.RangeQueryAround(center, 0.15, QueryFilter::kWhiteOnly, true,
                          &pruned);
    tree.RangeQueryAround(center, 0.15, QueryFilter::kWhiteOnly, false,
                          &unpruned);
    EXPECT_EQ(SortedIds(pruned), SortedIds(unpruned));
  }
}

TEST(MTreeQueryTest, PruningReducesAccessesWhenMostlyGrey) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(2000, 2, 37);
  MTreeOptions options;
  options.node_capacity = 10;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (i % 100 != 0) tree.SetColor(i, Color::kGrey);
  }
  tree.ResetStats();
  std::vector<Neighbor> found;
  tree.RangeQueryAround(0, 0.3, QueryFilter::kWhiteOnly, false, &found);
  uint64_t unpruned_cost = tree.stats().node_accesses;
  tree.ResetStats();
  found.clear();
  tree.RangeQueryAround(0, 0.3, QueryFilter::kWhiteOnly, true, &found);
  uint64_t pruned_cost = tree.stats().node_accesses;
  EXPECT_LT(pruned_cost, unpruned_cost);
}

TEST(MTreeQueryTest, BottomUpWithoutGreyStopIsExact) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(600, 2, 41);
  MTreeOptions options;
  options.node_capacity = 10;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  for (ObjectId center : {10u, 200u, 599u}) {
    for (double radius : {0.02, 0.1, 0.4}) {
      found.clear();
      tree.RangeQueryBottomUp(center, radius, QueryFilter::kAll, false, false,
                              &found);
      EXPECT_EQ(SortedIds(found),
                BruteForceRange(d, metric, d.point(center), radius, center));
    }
  }
}

TEST(MTreeQueryTest, BottomUpGreyStopReturnsSubsetOfWhites) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(600, 2, 41);
  MTreeOptions options;
  options.node_capacity = 10;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  // Grey out most objects so some subtrees go fully grey.
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (i % 7 != 0) tree.SetColor(i, Color::kGrey);
  }
  std::vector<Neighbor> fast, exact;
  for (ObjectId center : {3u, 111u, 598u}) {
    fast.clear();
    exact.clear();
    tree.RangeQueryBottomUp(center, 0.15, QueryFilter::kWhiteOnly, true, true,
                            &fast);
    tree.RangeQueryAround(center, 0.15, QueryFilter::kWhiteOnly, true, &exact);
    auto fast_ids = SortedIds(fast);
    auto exact_ids = SortedIds(exact);
    // Grey-stopping may miss whites but never invents results.
    for (ObjectId id : fast_ids) {
      EXPECT_TRUE(
          std::binary_search(exact_ids.begin(), exact_ids.end(), id));
    }
  }
}

TEST(MTreeColorTest, ResetColorsMakesEverythingWhite) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(100, 2, 43);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  tree.SetColor(5, Color::kBlack);
  tree.SetColor(6, Color::kGrey);
  tree.ResetColors();
  EXPECT_EQ(tree.white_count(), d.size());
  EXPECT_EQ(tree.color(5), Color::kWhite);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(MTreeColorTest, WhiteCountTracksTransitions) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(50, 2, 47);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(tree.white_count(), 50u);
  tree.SetColor(0, Color::kGrey);
  tree.SetColor(1, Color::kBlack);
  EXPECT_EQ(tree.white_count(), 48u);
  tree.SetColor(0, Color::kWhite);
  EXPECT_EQ(tree.white_count(), 49u);
  tree.SetColor(1, Color::kRed);  // black -> red: both non-white
  EXPECT_EQ(tree.white_count(), 49u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(MTreeColorTest, ObjectsWithColor) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(10, 2, 53);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  tree.SetColor(3, Color::kBlack);
  tree.SetColor(7, Color::kBlack);
  tree.SetColor(5, Color::kGrey);
  EXPECT_EQ(tree.ObjectsWithColor(Color::kBlack),
            (std::vector<ObjectId>{3, 7}));
  EXPECT_EQ(tree.ObjectsWithColor(Color::kGrey), (std::vector<ObjectId>{5}));
  EXPECT_EQ(tree.ObjectsWithColor(Color::kWhite).size(), 7u);
}

TEST(MTreeColorTest, ScanLeavesSkipsGreyLeavesWithoutAccess) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(400, 2, 59);
  MTreeOptions options;
  options.node_capacity = 8;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  for (ObjectId i = 0; i < d.size(); ++i) tree.SetColor(i, Color::kGrey);
  tree.ResetStats();
  size_t visited = 0;
  tree.ScanLeaves(true, [&](ObjectId) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(tree.stats().node_accesses, 0u);
  tree.ResetStats();
  tree.ScanLeaves(false, [&](ObjectId) { ++visited; });
  EXPECT_EQ(visited, d.size());
  EXPECT_EQ(tree.stats().node_accesses, tree.num_leaves());
}

TEST(MTreeZoomSupportTest, ObserveBlackNeighborKeepsMinimum) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(10, 2, 61);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(std::isinf(tree.closest_black_dist(0)));
  tree.ObserveBlackNeighbor(0, 0.5);
  tree.ObserveBlackNeighbor(0, 0.8);  // larger: ignored
  EXPECT_DOUBLE_EQ(tree.closest_black_dist(0), 0.5);
  tree.ObserveBlackNeighbor(0, 0.2);
  EXPECT_DOUBLE_EQ(tree.closest_black_dist(0), 0.2);
  tree.ClearClosestBlackDistance(0);
  EXPECT_TRUE(std::isinf(tree.closest_black_dist(0)));
}

TEST(MTreeZoomSupportTest, RecomputeClosestBlackDistancesIsExact) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(300, 2, 67);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<ObjectId> blacks = {10, 50, 100, 200};
  for (ObjectId b : blacks) tree.SetColor(b, Color::kBlack);
  const double radius = 0.25;
  tree.RecomputeClosestBlackDistances(radius);
  for (ObjectId i = 0; i < d.size(); ++i) {
    double expected = std::numeric_limits<double>::infinity();
    for (ObjectId b : blacks) {
      if (b == i) continue;
      double dist = metric.Distance(d.point(i), d.point(b));
      if (dist <= radius) expected = std::min(expected, dist);
    }
    EXPECT_DOUBLE_EQ(tree.closest_black_dist(i), expected) << "object " << i;
  }
}

TEST(MTreeStatsTest, FatFactorInUnitRangeAndPolicySensitive) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(1500, 2, 71);
  MTreeOptions low_overlap;
  low_overlap.node_capacity = 25;
  low_overlap.split_policy = SplitPolicy::MinOverlap();
  MTree tree_low(d, metric, low_overlap);
  ASSERT_TRUE(tree_low.Build().ok());

  MTreeOptions high_overlap = low_overlap;
  high_overlap.split_policy = SplitPolicy::RandomSplit();
  MTree tree_high(d, metric, high_overlap);
  ASSERT_TRUE(tree_high.Build().ok());

  double f_low = tree_low.FatFactor();
  double f_high = tree_high.FatFactor();
  EXPECT_GE(f_low, 0.0);
  EXPECT_LE(f_low, 1.0);
  EXPECT_GE(f_high, 0.0);
  EXPECT_LE(f_high, 1.0);
  // The paper (Figure 10): MinOverlap produces the lowest fat-factor,
  // random pivots the highest.
  EXPECT_LT(f_low, f_high);
}

TEST(MTreeStatsTest, CapacityAffectsNodeCount) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(1000, 2, 73);
  MTreeOptions small_nodes;
  small_nodes.node_capacity = 25;
  MTreeOptions large_nodes;
  large_nodes.node_capacity = 100;
  MTree tree_small(d, metric, small_nodes);
  MTree tree_large(d, metric, large_nodes);
  ASSERT_TRUE(tree_small.Build().ok());
  ASSERT_TRUE(tree_large.Build().ok());
  EXPECT_GT(tree_small.num_nodes(), tree_large.num_nodes());
}

TEST(MTreeCountsTest, BuildTimeNeighborCountsMatchPostBuild) {
  EuclideanMetric metric;
  const double radius = 0.1;
  Dataset d = MakeClusteredDataset(500, 2, 79);

  MTree tree_a(d, metric);
  std::vector<uint32_t> counts_build;
  ASSERT_TRUE(tree_a.BuildWithNeighborCounts(radius, &counts_build).ok());

  MTree tree_b(d, metric);
  ASSERT_TRUE(tree_b.Build().ok());
  std::vector<uint32_t> counts_post;
  tree_b.ComputeNeighborCountsPostBuild(radius, &counts_post);

  ASSERT_EQ(counts_build.size(), counts_post.size());
  for (size_t i = 0; i < counts_build.size(); ++i) {
    EXPECT_EQ(counts_build[i], counts_post[i]) << "object " << i;
  }
  // And both must equal the true neighborhood size.
  for (ObjectId i = 0; i < d.size(); ++i) {
    EXPECT_EQ(counts_post[i],
              BruteForceRange(d, metric, d.point(i), radius, i).size());
  }
}

TEST(MTreeCountsTest, BuildTimeCountsCheaperThanPostBuild) {
  EuclideanMetric metric;
  const double radius = 0.05;
  Dataset d = MakeClusteredDataset(2000, 2, 83);

  MTree tree_a(d, metric);
  std::vector<uint32_t> counts;
  ASSERT_TRUE(tree_a.BuildWithNeighborCounts(radius, &counts).ok());
  uint64_t cost_build_time = tree_a.stats().node_accesses;

  MTree tree_b(d, metric);
  ASSERT_TRUE(tree_b.Build().ok());
  tree_b.ComputeNeighborCountsPostBuild(radius, &counts);
  uint64_t cost_post = tree_b.stats().node_accesses;

  EXPECT_LT(cost_build_time, cost_post);
}

// The count pass's contract, for every metric kernel, both build
// strategies, two dimensions and three pool shapes: counts[id] is the size
// of RangeQueryAround(id), and the pass charges exactly what those
// per-object queries charge — to stats(), or to an explicit sink.
using CountsParam = std::tuple<MetricKind, BuildStrategy, size_t, size_t>;

class MTreeCountsContractTest : public ::testing::TestWithParam<CountsParam> {
};

Dataset CountsDataset(MetricKind kind, size_t dim) {
  if (kind != MetricKind::kHamming) return MakeClusteredDataset(600, dim, 61);
  // Categorical codes: few distinct values per attribute, so Hamming
  // neighborhoods are large and full of exact distance ties.
  Dataset d;
  Random rng(67);
  for (int i = 0; i < 600; ++i) {
    std::vector<double> coords(dim);
    for (double& c : coords) c = static_cast<double>(rng.UniformInt(3));
    EXPECT_TRUE(d.Add(Point(std::move(coords))).ok());
  }
  return d;
}

double CountsRadius(MetricKind kind, size_t dim) {
  const bool low = dim == 2;
  switch (kind) {
    case MetricKind::kEuclidean:
      return low ? 0.05 : 0.25;
    case MetricKind::kManhattan:
      return low ? 0.07 : 0.5;
    case MetricKind::kChebyshev:
      return low ? 0.04 : 0.15;
    case MetricKind::kHamming:
      return low ? 1.0 : 2.0;
  }
  return 0.0;
}

std::string CountsParamName(const ::testing::TestParamInfo<CountsParam>& info) {
  const auto [kind, strategy, dim, threads] = info.param;
  return std::string(MetricKindToString(kind)) + "_" +
         BuildStrategyToString(strategy) + "_dim" + std::to_string(dim) +
         (threads == 0 ? std::string("_serial")
                       : "_pool" + std::to_string(threads));
}

TEST_P(MTreeCountsContractTest, CountsAndStatsEqualPerObjectQueries) {
  const auto [kind, strategy, dim, threads] = GetParam();
  const Dataset d = CountsDataset(kind, dim);
  const std::unique_ptr<DistanceMetric> metric = MakeMetric(kind);
  const double radius = CountsRadius(kind, dim);
  MTreeOptions options;
  options.node_capacity = 16;
  options.build.strategy = strategy;
  MTree tree(d, *metric, options);
  ASSERT_TRUE(tree.Build().ok());

  tree.ResetStats();
  std::vector<uint32_t> expected(d.size());
  std::vector<Neighbor> found;
  for (ObjectId id = 0; id < d.size(); ++id) {
    found.clear();
    tree.RangeQueryAround(id, radius, QueryFilter::kAll, /*pruned=*/false,
                          &found);
    expected[id] = static_cast<uint32_t>(found.size());
  }
  const AccessStats query_stats = tree.stats();
  ASSERT_GT(*std::max_element(expected.begin(), expected.end()), 0u);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  tree.ResetStats();
  std::vector<uint32_t> counts;
  tree.ComputeNeighborCountsPostBuild(radius, &counts, pool.get());
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(tree.stats(), query_stats);

  tree.ResetStats();
  AccessStats sink;
  tree.ComputeNeighborCountsPostBuild(radius, &counts, pool.get(), &sink);
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(sink, query_stats);
  EXPECT_EQ(tree.stats(), AccessStats{});
}

INSTANTIATE_TEST_SUITE_P(
    KernelsBuildsPools, MTreeCountsContractTest,
    ::testing::Combine(
        ::testing::Values(MetricKind::kEuclidean, MetricKind::kManhattan,
                          MetricKind::kChebyshev, MetricKind::kHamming),
        ::testing::Values(BuildStrategy::kInsertAtATime,
                          BuildStrategy::kBulkLoad),
        ::testing::Values(size_t{2}, size_t{6}),
        ::testing::Values(size_t{0}, size_t{2}, size_t{4})),
    CountsParamName);

// A metric the count pass cannot devirtualize: every distance the pass
// charges must reach it through the virtual call.
class CountingMetric final : public DistanceMetric {
 public:
  explicit CountingMetric(const DistanceMetric& inner) : inner_(inner) {}

  double Distance(const Point& a, const Point& b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Distance(a, b);
  }
  MetricKind kind() const override { return inner_.kind(); }

  uint64_t calls() const { return calls_.load(); }

 private:
  const DistanceMetric& inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

TEST(MTreeCountsTest, WrapperMetricKeepsTheVirtualCall) {
  const Dataset d = MakeClusteredDataset(600, 2, 71);
  const double radius = 0.05;
  EuclideanMetric plain;
  MTree plain_tree(d, plain);
  ASSERT_TRUE(plain_tree.Build().ok());
  plain_tree.ResetStats();
  std::vector<uint32_t> expected;
  plain_tree.ComputeNeighborCountsPostBuild(radius, &expected);

  CountingMetric counting(plain);
  MTree tree(d, counting);
  ASSERT_TRUE(tree.Build().ok());
  tree.ResetStats();
  const uint64_t calls_before = counting.calls();
  ThreadPool pool(2);
  std::vector<uint32_t> counts;
  tree.ComputeNeighborCountsPostBuild(radius, &counts, &pool);
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(tree.stats(), plain_tree.stats());
  EXPECT_EQ(counting.calls() - calls_before,
            tree.stats().distance_computations);
}

// Every range-search kind over a wrapper metric: the wrapper sees exactly
// one virtual call per charged distance computation, and the queries return
// what the built-in metric's tree returns — same ids in the same order,
// bit-equal distances, same AccessStats. Capacities 2 to 200 put leaves on
// both sides of the leaf scan's 64-entry block boundary.
using AccountingParam = std::tuple<size_t, size_t>;  // (capacity, dim)

class MTreeWrapperAccountingTest
    : public ::testing::TestWithParam<AccountingParam> {};

std::vector<std::pair<ObjectId, uint64_t>> Bits(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<ObjectId, uint64_t>> bits;
  bits.reserve(neighbors.size());
  for (const Neighbor& nb : neighbors) {
    bits.emplace_back(nb.id, std::bit_cast<uint64_t>(nb.dist));
  }
  return bits;
}

std::string AccountingParamName(
    const ::testing::TestParamInfo<AccountingParam>& info) {
  const auto [capacity, dim] = info.param;
  return "capacity" + std::to_string(capacity) + "_dim" + std::to_string(dim);
}

TEST_P(MTreeWrapperAccountingTest, EveryQueryKindMatchesTheBuiltInMetric) {
  const auto [capacity, dim] = GetParam();
  const Dataset d = MakeClusteredDataset(1500, dim, 83);
  const double radius = dim == 2 ? 0.06 : 0.3;
  MTreeOptions options;
  options.node_capacity = capacity;
  EuclideanMetric plain;
  CountingMetric counting(plain);
  MTree plain_tree(d, plain, options);
  MTree tree(d, counting, options);
  ASSERT_TRUE(plain_tree.Build().ok());
  ASSERT_TRUE(tree.Build().ok());
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  const std::vector<ObjectId> order = tree.LeafOrder();
  ASSERT_EQ(order, plain_tree.LeafOrder());
  for (size_t i = 0; i < order.size() / 2; ++i) {
    tree.SetColor(order[i], Color::kGrey);
    plain_tree.SetColor(order[i], Color::kGrey);
  }

  // Runs `query(tree, out, trace)` on both trees and compares everything
  // it can observe.
  uint64_t hits = 0;
  auto expect_same = [&](const std::string& what, const auto& query) {
    plain_tree.ResetStats();
    tree.ResetStats();
    std::vector<Neighbor> expected, found;
    MTree::QueryTrace expected_trace, found_trace;
    query(plain_tree, &expected, &expected_trace);
    const uint64_t calls_before = counting.calls();
    query(tree, &found, &found_trace);
    EXPECT_EQ(Bits(found), Bits(expected)) << what;
    EXPECT_EQ(tree.stats(), plain_tree.stats()) << what;
    EXPECT_EQ(counting.calls() - calls_before,
              tree.stats().distance_computations)
        << what;
    EXPECT_EQ(found_trace.whites, expected_trace.whites) << what;
    EXPECT_EQ(found_trace.nodes.size(), expected_trace.nodes.size()) << what;
    hits += found.size();
  };

  for (ObjectId center = 0; center < d.size(); center += 97) {
    const std::string at = " at " + std::to_string(center);
    for (const bool white_only : {false, true}) {
      const QueryFilter filter =
          white_only ? QueryFilter::kWhiteOnly : QueryFilter::kAll;
      const std::string mode = white_only ? " pruned white-only" : " kAll";
      expect_same("RangeQuery" + mode + at, [&](MTree& t, auto* out, auto*) {
        t.RangeQuery(d.point(center), radius, filter, white_only, out);
      });
      expect_same("RangeQueryAround" + mode + at,
                  [&](MTree& t, auto* out, auto*) {
                    t.RangeQueryAround(center, radius, filter, white_only,
                                       out);
                  });
      expect_same("traced RangeQueryAround" + mode + at,
                  [&](MTree& t, auto* out, auto* trace) {
                    t.RangeQueryAround(center, radius, filter, white_only,
                                       out, trace);
                  });
      for (const bool stop_at_grey : {false, true}) {
        expect_same(std::string("RangeQueryBottomUp stop_at_grey=") +
                        (stop_at_grey ? "on" : "off") + mode + at,
                    [&](MTree& t, auto* out, auto* trace) {
                      t.RangeQueryBottomUp(center, radius, filter, white_only,
                                           stop_at_grey, out, trace);
                    });
      }
    }
  }
  EXPECT_GT(hits, 0u);

  plain_tree.ResetStats();
  tree.ResetStats();
  std::vector<uint32_t> expected_counts, counts;
  plain_tree.ComputeNeighborCountsPostBuild(radius, &expected_counts);
  const uint64_t calls_before = counting.calls();
  tree.ComputeNeighborCountsPostBuild(radius, &counts);
  EXPECT_EQ(counts, expected_counts);
  EXPECT_EQ(tree.stats(), plain_tree.stats());
  EXPECT_EQ(counting.calls() - calls_before,
            tree.stats().distance_computations);
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndDims, MTreeWrapperAccountingTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{12}, size_t{50},
                                         size_t{200}),
                       ::testing::Values(size_t{2}, size_t{6})),
    AccountingParamName);

// The accounting convention shared by every query, Distance and the count
// pass: a call with a sink charges the sink exactly what the same call
// with a null sink charges stats(), and leaves stats() untouched.
std::vector<std::pair<ObjectId, double>> Flatten(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<ObjectId, double>> flat;
  flat.reserve(neighbors.size());
  for (const Neighbor& nb : neighbors) flat.emplace_back(nb.id, nb.dist);
  return flat;
}

// A tree whose first half in leaf order is grey, so pruning and the
// grey-stopping climb both have subtrees to skip.
class MTreeSinkTest : public ::testing::Test {
 protected:
  MTreeSinkTest() : dataset_(MakeClusteredDataset(800, 2, 29)) {}

  void SetUp() override {
    MTreeOptions options;
    options.node_capacity = 12;
    tree_ = std::make_unique<MTree>(dataset_, metric_, options);
    ASSERT_TRUE(tree_->Build().ok());
    order_ = tree_->LeafOrder();
    for (size_t i = 0; i < order_.size() / 2; ++i) {
      tree_->SetColor(order_[i], Color::kGrey);
    }
  }

  // Runs `call(sink)` with a null sink, then with a private one.
  template <typename Call>
  void ExpectSameCharge(const std::string& what, const Call& call) {
    tree_->ResetStats();
    const auto plain = call(nullptr);
    const AccessStats charged = tree_->stats();
    EXPECT_GT(charged.distance_computations, 0u) << what;
    tree_->ResetStats();
    AccessStats sink;
    const auto sunk = call(&sink);
    EXPECT_EQ(sunk, plain) << what;
    EXPECT_EQ(sink, charged) << what;
    EXPECT_EQ(tree_->stats(), AccessStats{}) << what;
  }

  const double radius_ = 0.08;
  EuclideanMetric metric_;
  Dataset dataset_;
  std::unique_ptr<MTree> tree_;
  std::vector<ObjectId> order_;
};

TEST_F(MTreeSinkTest, SinkCallChargesWhatTheNullSinkCallCharges) {
  const ObjectId white = order_[order_.size() * 3 / 4];
  const ObjectId grey = order_[order_.size() / 4];
  MTree& tree = *tree_;
  for (const ObjectId center : {white, grey}) {
    const std::string at = " at " + std::to_string(center);
    ExpectSameCharge("RangeQuery" + at, [&](AccessStats* sink) {
      std::vector<Neighbor> out;
      tree.RangeQuery(dataset_.point(center), radius_, QueryFilter::kWhiteOnly,
                      /*pruned=*/true, &out, sink);
      return Flatten(out);
    });
    ExpectSameCharge("RangeQueryAround" + at, [&](AccessStats* sink) {
      std::vector<Neighbor> out;
      tree.RangeQueryAround(center, radius_, QueryFilter::kWhiteOnly,
                            /*pruned=*/true, &out, /*trace=*/nullptr, sink);
      return Flatten(out);
    });
    ExpectSameCharge("traced RangeQueryAround" + at, [&](AccessStats* sink) {
      std::vector<Neighbor> out;
      MTree::QueryTrace trace;
      tree.RangeQueryAround(center, radius_, QueryFilter::kWhiteOnly,
                            /*pruned=*/true, &out, &trace, sink);
      return std::make_tuple(Flatten(out), trace.nodes, trace.whites);
    });
    for (const bool stop_at_grey : {false, true}) {
      const char* climb = stop_at_grey ? "stopping climb" : "full climb";
      ExpectSameCharge(climb + at, [&](AccessStats* sink) {
        std::vector<Neighbor> out;
        MTree::QueryTrace trace;
        tree.RangeQueryBottomUp(center, radius_, QueryFilter::kWhiteOnly,
                                /*pruned=*/true, stop_at_grey, &out, &trace,
                                sink);
        return std::make_tuple(Flatten(out), trace.nodes, trace.whites);
      });
    }
    ExpectSameCharge("LeafMatesWithin" + at, [&](AccessStats* sink) {
      std::vector<Neighbor> out;
      tree.LeafMatesWithin(center, radius_, &out, sink);
      return Flatten(out);
    });
    ExpectSameCharge("Distance" + at, [&](AccessStats* sink) {
      return tree.Distance(center, order_.front(), sink);
    });
  }
  ExpectSameCharge("ComputeNeighborCountsPostBuild", [&](AccessStats* sink) {
    std::vector<uint32_t> counts;
    tree.ComputeNeighborCountsPostBuild(radius_, &counts, /*pool=*/nullptr,
                                        sink);
    return counts;
  });
}

// A traced query assumes its center black: on a white center it returns
// what the untraced query returns once the center is blackened, at the
// same cost. The center is made its leaf's only white object, so the
// assumption decides whether that leaf is pruned.
TEST_F(MTreeSinkTest, TracedQueryAssumesItsCenterBlack) {
  MTree& tree = *tree_;
  const ObjectId center = order_[order_.size() * 3 / 4];
  std::vector<Neighbor> leaf_mates;
  tree.LeafMatesWithin(center, std::numeric_limits<double>::infinity(),
                       &leaf_mates);
  for (const Neighbor& nb : leaf_mates) tree.SetColor(nb.id, Color::kGrey);
  ASSERT_EQ(tree.color(center), Color::kWhite);

  tree.ResetStats();
  std::vector<Neighbor> white_plain;
  tree.RangeQueryAround(center, radius_, QueryFilter::kWhiteOnly,
                        /*pruned=*/true, &white_plain);
  const AccessStats white_stats = tree.stats();

  tree.ResetStats();
  std::vector<Neighbor> traced;
  MTree::QueryTrace trace;
  tree.RangeQueryAround(center, radius_, QueryFilter::kWhiteOnly,
                        /*pruned=*/true, &traced, &trace);
  const AccessStats traced_stats = tree.stats();

  tree.SetColor(center, Color::kBlack);
  EXPECT_TRUE(tree.SpeculationValid(trace));
  tree.ResetStats();
  std::vector<Neighbor> black_plain;
  tree.RangeQueryAround(center, radius_, QueryFilter::kWhiteOnly,
                        /*pruned=*/true, &black_plain);
  EXPECT_EQ(Flatten(traced), Flatten(black_plain));
  EXPECT_EQ(traced_stats, tree.stats());
  // The assumption is visible: the white-center query still read the
  // center's leaf.
  EXPECT_GT(white_stats.node_accesses, traced_stats.node_accesses);
  EXPECT_EQ(Flatten(white_plain), Flatten(black_plain));
}

}  // namespace
}  // namespace disc
