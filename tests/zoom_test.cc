#include "core/zoom.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/disc_algorithms.h"
#include "data/cities.h"
#include "data/generators.h"
#include "eval/quality.h"
#include "graph/properties.h"
#include "metric/metric.h"

namespace disc {
namespace {

bool IsSubset(const std::vector<ObjectId>& small,
              const std::vector<ObjectId>& big) {
  std::set<ObjectId> big_set(big.begin(), big.end());
  for (ObjectId id : small) {
    if (!big_set.count(id)) return false;
  }
  return true;
}

// Builds a tree, runs pruned Greedy-DisC at `r_old`, and performs the §5.2
// post-processing so the zooming rule has exact closest-black distances.
struct ZoomFixture {
  ZoomFixture(Dataset ds, double r_old_in)
      : dataset(std::move(ds)), r_old(r_old_in), tree(dataset, metric) {
    EXPECT_TRUE(tree.Build().ok());
    old_result = GreedyDisc(&tree, r_old, {});
    tree.RecomputeClosestBlackDistances(r_old);
  }

  Dataset dataset;
  EuclideanMetric metric;
  double r_old;
  MTree tree;
  DiscResult old_result;
};

class ZoomInTest : public ::testing::TestWithParam<bool> {};

TEST_P(ZoomInTest, ProducesValidSupersetSolution) {
  const bool greedy = GetParam();
  for (uint64_t seed : {1u, 2u}) {
    ZoomFixture fx(MakeClusteredDataset(700, 2, seed), 0.1);
    DiscResult zoomed = ZoomIn(&fx.tree, 0.05, greedy);
    // Lemma 5(i): the old solution is kept.
    EXPECT_TRUE(IsSubset(fx.old_result.solution, zoomed.solution));
    // The result is a valid solution at the new radius.
    Status valid =
        VerifyDisCDiverse(fx.dataset, fx.metric, 0.05, zoomed.solution);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
}

TEST_P(ZoomInTest, GrowthWithinTheoreticalBound) {
  const bool greedy = GetParam();
  ZoomFixture fx(MakeClusteredDataset(800, 2, 3), 0.08);
  const double r_new = 0.04;
  DiscResult zoomed = ZoomIn(&fx.tree, r_new, greedy);
  // Lemma 5(ii) with the Euclidean NI bound of Lemma 4.
  auto bound = ZoomInGrowthBound(MetricKind::kEuclidean, r_new, fx.r_old);
  ASSERT_TRUE(bound.ok());
  EXPECT_LE(zoomed.size(),
            static_cast<size_t>(*bound * fx.old_result.size()) + 1);
}

TEST_P(ZoomInTest, CheaperThanRecomputingFromScratch) {
  const bool greedy = GetParam();
  ZoomFixture fx(MakeClusteredDataset(2500, 2, 5), 0.08);
  DiscResult zoomed = ZoomIn(&fx.tree, 0.04, greedy);

  MTree fresh(fx.dataset, fx.metric);
  ASSERT_TRUE(fresh.Build().ok());
  fresh.ResetStats();
  DiscResult scratch = GreedyDisc(&fresh, 0.04, {});
  EXPECT_LT(zoomed.stats.node_accesses, scratch.stats.node_accesses);
}

TEST_P(ZoomInTest, ClosterToOldSolutionThanScratch) {
  const bool greedy = GetParam();
  ZoomFixture fx(MakeClusteredDataset(1200, 2, 7), 0.09);
  DiscResult zoomed = ZoomIn(&fx.tree, 0.045, greedy);

  MTree fresh(fx.dataset, fx.metric);
  ASSERT_TRUE(fresh.Build().ok());
  DiscResult scratch = GreedyDisc(&fresh, 0.045, {});

  double zoom_dist =
      JaccardDistance(fx.old_result.solution, zoomed.solution);
  double scratch_dist =
      JaccardDistance(fx.old_result.solution, scratch.solution);
  EXPECT_LT(zoom_dist, scratch_dist);
}

INSTANTIATE_TEST_SUITE_P(Variants, ZoomInTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Greedy" : "Arbitrary";
                         });

class ZoomOutTest : public ::testing::TestWithParam<ZoomOutVariant> {};

TEST_P(ZoomOutTest, ProducesValidSolutionAtLargerRadius) {
  for (uint64_t seed : {11u, 12u}) {
    ZoomFixture fx(MakeClusteredDataset(700, 2, seed), 0.04);
    const double r_new = 0.09;
    DiscResult zoomed = ZoomOut(&fx.tree, r_new, GetParam());
    Status valid =
        VerifyDisCDiverse(fx.dataset, fx.metric, r_new, zoomed.solution);
    EXPECT_TRUE(valid.ok())
        << ZoomOutVariantToString(GetParam()) << ": " << valid.ToString();
    // Zooming out must shrink the solution on these workloads.
    EXPECT_LT(zoomed.size(), fx.old_result.size());
  }
}

TEST_P(ZoomOutTest, KeepsPartOfTheOldSolution) {
  ZoomFixture fx(MakeClusteredDataset(900, 2, 13), 0.05);
  DiscResult zoomed = ZoomOut(&fx.tree, 0.1, GetParam());
  // At least one previously shown object survives in every variant (the
  // first confirmed red always stays).
  std::set<ObjectId> old_set(fx.old_result.solution.begin(),
                             fx.old_result.solution.end());
  size_t kept = 0;
  for (ObjectId id : zoomed.solution) kept += old_set.count(id);
  EXPECT_GT(kept, 0u);
}

TEST_P(ZoomOutTest, CloserToOldSolutionThanScratch) {
  ZoomFixture fx(MakeClusteredDataset(1200, 2, 17), 0.05);
  const double r_new = 0.1;
  DiscResult zoomed = ZoomOut(&fx.tree, r_new, GetParam());

  MTree fresh(fx.dataset, fx.metric);
  ASSERT_TRUE(fresh.Build().ok());
  DiscResult scratch = GreedyDisc(&fresh, r_new, {});

  EXPECT_LE(JaccardDistance(fx.old_result.solution, zoomed.solution),
            JaccardDistance(fx.old_result.solution, scratch.solution));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ZoomOutTest,
    ::testing::Values(ZoomOutVariant::kArbitrary,
                      ZoomOutVariant::kGreedyMostRed,
                      ZoomOutVariant::kGreedyFewestRed,
                      ZoomOutVariant::kGreedyMostWhite),
    [](const ::testing::TestParamInfo<ZoomOutVariant>& param_info) {
      switch (param_info.param) {
        case ZoomOutVariant::kArbitrary:
          return "Arbitrary";
        case ZoomOutVariant::kGreedyMostRed:
          return "GreedyA";
        case ZoomOutVariant::kGreedyFewestRed:
          return "GreedyB";
        case ZoomOutVariant::kGreedyMostWhite:
          return "GreedyC";
      }
      return "Unknown";
    });

TEST(ZoomOutBehaviorTest, FewestRedKeepsMoreOfTheOldSolution) {
  // Variant (b) explicitly maximizes S^r ∩ S^r'.
  ZoomFixture fx_a(MakeClusteredDataset(1500, 2, 19), 0.04);
  ZoomFixture fx_b(MakeClusteredDataset(1500, 2, 19), 0.04);
  const double r_new = 0.08;
  auto kept = [](const DiscResult& old_result, const DiscResult& zoomed) {
    std::set<ObjectId> old_set(old_result.solution.begin(),
                               old_result.solution.end());
    size_t count = 0;
    for (ObjectId id : zoomed.solution) count += old_set.count(id);
    return count;
  };
  DiscResult za = ZoomOut(&fx_a.tree, r_new, ZoomOutVariant::kGreedyMostRed);
  DiscResult zb = ZoomOut(&fx_b.tree, r_new, ZoomOutVariant::kGreedyFewestRed);
  EXPECT_GE(kept(fx_b.old_result, zb), kept(fx_a.old_result, za));
}

TEST(ZoomChainTest, InThenOutThenInRemainsValid) {
  ZoomFixture fx(MakeClusteredDataset(800, 2, 23), 0.08);
  DiscResult in1 = ZoomIn(&fx.tree, 0.04, true);
  ASSERT_TRUE(
      VerifyDisCDiverse(fx.dataset, fx.metric, 0.04, in1.solution).ok());

  DiscResult out = ZoomOut(&fx.tree, 0.1, ZoomOutVariant::kGreedyMostRed);
  ASSERT_TRUE(
      VerifyDisCDiverse(fx.dataset, fx.metric, 0.1, out.solution).ok());

  fx.tree.RecomputeClosestBlackDistances(0.1);
  DiscResult in2 = ZoomIn(&fx.tree, 0.06, true);
  EXPECT_TRUE(
      VerifyDisCDiverse(fx.dataset, fx.metric, 0.06, in2.solution).ok());
}

// The observe_all selection queries widen what a greedy zoom-in *observes*
// but never what it *selects*: the chain with observe_all (which skips the
// RecomputeClosestBlackDistances between zoom-ins) must reproduce the
// recompute chain's solutions exactly, and must leave every object's
// closest-black distance exact (equal to what a full recompute produces).
// This is the correctness side of the bench_parallel_select.cc ZoomChain
// A/B rows; the engine adopts observe_all based on those rows.
TEST(ZoomChainTest, ObserveAllChainMatchesRecomputeChain) {
  const Dataset dataset = MakeClusteredDataset(800, 2, 23);

  ZoomFixture recompute(dataset, 0.08);
  DiscResult a1 = ZoomIn(&recompute.tree, 0.04, /*greedy=*/true);
  recompute.tree.RecomputeClosestBlackDistances(0.04);
  DiscResult a2 = ZoomIn(&recompute.tree, 0.02, /*greedy=*/true);

  ZoomFixture observe(dataset, 0.08);
  DiscResult b1 =
      ZoomIn(&observe.tree, 0.04, /*greedy=*/true, /*observe_all=*/true);
  // No recompute: the observe_all pass left the distances exact.
  DiscResult b2 =
      ZoomIn(&observe.tree, 0.02, /*greedy=*/true, /*observe_all=*/true);

  EXPECT_EQ(a1.solution, b1.solution);
  EXPECT_EQ(a2.solution, b2.solution);
  ASSERT_TRUE(
      VerifyDisCDiverse(dataset, observe.metric, 0.02, b2.solution).ok());

  // Distances after the observe_all chain are exact: recomputing from
  // scratch at the final radius changes nothing.
  std::vector<double> before;
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    before.push_back(observe.tree.closest_black_dist(id));
  }
  observe.tree.RecomputeClosestBlackDistances(0.02);
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    // Exact within the final radius; beyond it both values mean "not
    // covered" and the recompute may not see them at all.
    if (before[id] <= 0.02 ||
        observe.tree.closest_black_dist(id) <= 0.02) {
      EXPECT_EQ(before[id], observe.tree.closest_black_dist(id))
          << "id=" << id;
    }
  }
}

TEST(LocalZoomTest, LocalZoomInRefinesOnlyTheRegion) {
  ZoomFixture fx(MakeCitiesDataset(), 0.05);
  ObjectId center = fx.old_result.solution.front();
  DiscResult local = LocalZoom(&fx.tree, center, 0.05, 0.02, true);

  // The solution changes only inside the region.
  std::set<ObjectId> region;
  for (ObjectId i = 0; i < fx.dataset.size(); ++i) {
    if (fx.metric.Distance(fx.dataset.point(i), fx.dataset.point(center)) <=
        0.05) {
      region.insert(i);
    }
  }
  std::set<ObjectId> old_set(fx.old_result.solution.begin(),
                             fx.old_result.solution.end());
  std::set<ObjectId> new_set(local.solution.begin(), local.solution.end());
  for (ObjectId id : old_set) {
    if (!region.count(id)) {
      EXPECT_TRUE(new_set.count(id)) << id;
    }
  }
  for (ObjectId id : new_set) {
    if (!region.count(id)) {
      EXPECT_TRUE(old_set.count(id)) << id;
    }
  }
  // More representatives inside the region than before (finer radius).
  size_t old_in_region = 0, new_in_region = 0;
  for (ObjectId id : old_set) old_in_region += region.count(id);
  for (ObjectId id : new_set) new_in_region += region.count(id);
  EXPECT_GE(new_in_region, old_in_region);
  // Region objects are covered at the new radius. The representative may be
  // a region member or a pre-existing one just outside the boundary (its
  // coverage ball reaches in); both count.
  for (ObjectId id : region) {
    bool covered = false;
    for (ObjectId s : new_set) {
      if (fx.metric.Distance(fx.dataset.point(id), fx.dataset.point(s)) <=
          0.02) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "region object " << id << " uncovered";
  }
}

TEST(LocalZoomTest, LocalZoomOutCoarsensOnlyTheRegion) {
  ZoomFixture fx(MakeClusteredDataset(1000, 2, 29), 0.04);
  ObjectId center = fx.old_result.solution.front();
  DiscResult local = LocalZoom(&fx.tree, center, 0.04, 0.08, true);

  std::set<ObjectId> old_set(fx.old_result.solution.begin(),
                             fx.old_result.solution.end());
  std::set<ObjectId> new_set(local.solution.begin(), local.solution.end());
  std::set<ObjectId> region;
  for (ObjectId i = 0; i < fx.dataset.size(); ++i) {
    if (fx.metric.Distance(fx.dataset.point(i), fx.dataset.point(center)) <=
        0.04) {
      region.insert(i);
    }
  }
  for (ObjectId id : new_set) {
    if (!region.count(id)) {
      EXPECT_TRUE(old_set.count(id));
    }
  }
  // Inside the region, representatives at the coarser radius are fewer or
  // equal.
  size_t old_in = 0, new_in = 0;
  for (ObjectId id : old_set) old_in += region.count(id);
  for (ObjectId id : new_set) new_in += region.count(id);
  EXPECT_LE(new_in, old_in);
}

// Pins every zoom path exactly on one seeded workload: the solution (as an
// order-sensitive digest of the id sequence, plus its size), the AccessStats
// the operation charged, and the closest-black distance of every object
// afterwards (digest of the bit patterns). The validity and inequality
// tests above accept any valid answer; these values change when a rewrite
// changes the selection order, the queries issued or the distances
// observed. An intentional change regenerates the table from the failure
// messages, which print each case in table syntax.
struct PinnedZoom {
  const char* name;
  size_t size;
  uint64_t solution_digest;
  AccessStats stats;
  uint64_t distance_digest;
};

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

PinnedZoom Observe(const char* name, const MTree& tree,
                   const DiscResult& result) {
  PinnedZoom pinned{name, result.size(), kFnvOffset, result.stats, kFnvOffset};
  for (ObjectId id : result.solution) {
    pinned.solution_digest = Fnv1a(pinned.solution_digest, id);
  }
  for (ObjectId id = 0; id < tree.size(); ++id) {
    const double dist = tree.closest_black_dist(id);
    uint64_t bits = 0;
    std::memcpy(&bits, &dist, sizeof(bits));
    pinned.distance_digest = Fnv1a(pinned.distance_digest, bits);
  }
  return pinned;
}

constexpr char kTableFormat[] =
    "{\"%s\", %zu, 0x%016llxull, {%llu, %llu, %llu}, 0x%016llxull},";

std::string TableLine(const PinnedZoom& p) {
  using ull = unsigned long long;
  char line[200];
  std::snprintf(line, sizeof(line), kTableFormat, p.name, p.size,
                ull{p.solution_digest}, ull{p.stats.node_accesses},
                ull{p.stats.range_queries}, ull{p.stats.distance_computations},
                ull{p.distance_digest});
  return line;
}

TEST(ZoomPinnedTest, EveryZoomPathMatchesRecordedValues) {
  const Dataset dataset = MakeClusteredDataset(1200, 2, 41);
  const double r = 0.06, r_in = 0.03, r_out = 0.12, r_lo = 0.075;

  const std::vector<PinnedZoom> expected = {
      {"greedy-disc", 42, 0x63af1e3a648f7bfcull, {18394, 2400, 305231},
       0x036d499e34f9d27cull},
      {"zoom-in", 127, 0x3bb89017a4ca368full, {500, 85, 8401},
       0xcf196d18ff874626ull},
      {"greedy-zoom-in", 118, 0x518d417232a26ec4ull, {6928, 1164, 73408},
       0x0d4439ca57e4049aull},
      {"observe-all", 118, 0x518d417232a26ec4ull, {7028, 1164, 78162},
       0xba73dc1b9f568611ull},
      {"arbitrary", 19, 0x2d0459ce073dd962ull, {238, 19, 4699},
       0x6841c9830eb8cac6ull},
      {"greedy-a", 14, 0xd7925da104d16de6ull, {123, 17, 3595},
       0x68041ee8563491c4ull},
      {"greedy-b", 20, 0x86c521d9e8475006ull, {260, 66, 4783},
       0x5c96be2e210490c6ull},
      {"greedy-c", 14, 0x99c2e6f19393e189ull, {505, 59, 44727},
       0x6a913a0413f77effull},
      {"local-in", 45, 0x248503fff7414d83ull, {59, 4, 360},
       0x1206c8782d69c57eull},
      {"local-in/g", 45, 0x248503fff7414d83ull, {94, 21, 205},
       0x708e8abc40327e1dull},
      {"local-out", 41, 0x616b59a231294c2dull, {96, 3, 378},
       0x66003455da866bd5ull},
      {"local-out/g", 41, 0x616b59a231294c2dull, {25, 10, 276},
       0xb15614c5c696786eull},
  };

  ZoomFixture base(dataset, r);
  std::vector<PinnedZoom> actual = {
      Observe("greedy-disc", base.tree, base.old_result)};
  // Local zooms center on a covered object whose region holds several old
  // picks, so both passes of a local zoom-out have work inside the region.
  auto picks_near = [&](ObjectId id) {
    size_t picks = 0;
    for (ObjectId s : base.old_result.solution) {
      picks += base.metric.Distance(dataset.point(id), dataset.point(s)) <= r;
    }
    return picks;
  };
  ObjectId c = 0;
  while (base.tree.color(c) == Color::kBlack || picks_near(c) < 3) ++c;

  // Every zoom starts from its own copy of the same Greedy-DisC state.
  auto pin = [&](const char* name,
                const std::function<DiscResult(MTree*)>& zoom) {
    ZoomFixture fx(dataset, r);
    actual.push_back(Observe(name, fx.tree, zoom(&fx.tree)));
  };
  pin("zoom-in", [&](MTree* t) { return ZoomIn(t, r_in, false); });
  pin("greedy-zoom-in", [&](MTree* t) { return ZoomIn(t, r_in, true); });
  pin("observe-all", [&](MTree* t) { return ZoomIn(t, r_in, true, true); });
  for (ZoomOutVariant v :
       {ZoomOutVariant::kArbitrary, ZoomOutVariant::kGreedyMostRed,
        ZoomOutVariant::kGreedyFewestRed, ZoomOutVariant::kGreedyMostWhite}) {
    pin(ZoomOutVariantToString(v),
        [&](MTree* t) { return ZoomOut(t, r_out, v); });
  }
  pin("local-in", [&](MTree* t) { return LocalZoom(t, c, r, r_in, false); });
  pin("local-in/g", [&](MTree* t) { return LocalZoom(t, c, r, r_in, true); });
  pin("local-out", [&](MTree* t) { return LocalZoom(t, c, r, r_lo, false); });
  pin("local-out/g", [&](MTree* t) { return LocalZoom(t, c, r, r_lo, true); });

  std::string table;
  for (const PinnedZoom& a : actual) table += TableLine(a) + "\n";
  ASSERT_EQ(actual.size(), expected.size()) << table;
  for (size_t i = 0; i < actual.size(); ++i) {
    const PinnedZoom& a = actual[i];
    const PinnedZoom& e = expected[i];
    const std::string line = TableLine(a);
    EXPECT_STREQ(a.name, e.name);
    EXPECT_EQ(a.size, e.size) << line;
    EXPECT_EQ(a.solution_digest, e.solution_digest) << line;
    EXPECT_EQ(a.stats, e.stats) << line;
    EXPECT_EQ(a.distance_digest, e.distance_digest) << line;
  }
}

TEST(ZoomEdgeCaseTest, ZoomInWithEqualRadiusKeepsSolution) {
  ZoomFixture fx(MakeClusteredDataset(500, 2, 31), 0.06);
  DiscResult same = ZoomIn(&fx.tree, 0.06, false);
  std::vector<ObjectId> sorted_old = fx.old_result.solution;
  std::vector<ObjectId> sorted_new = same.solution;
  std::sort(sorted_old.begin(), sorted_old.end());
  std::sort(sorted_new.begin(), sorted_new.end());
  EXPECT_EQ(sorted_old, sorted_new);
}

}  // namespace
}  // namespace disc
