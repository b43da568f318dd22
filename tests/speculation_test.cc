// core/speculation.h: speculative parallel candidate evaluation in the
// greedy selection loops, pinned by a determinism layer.
//
// The contract under test (the speculation extension of the util/parallel.h
// rules): every greedy-family algorithm produces byte-identical output —
// solution, AccessStats, tree color state, serialized wire line — at every
// thread count and every speculation width, including adversarial widths
// (0 = auto, 1 = the exact pre-speculation path, width > candidate count).
// The speculation counters themselves are deterministic for a fixed
// (workload, width) regardless of the thread count, and a pinned-counter
// test fails if speculation silently degenerates (stops committing or stops
// being exercised). A CountingMetric layer bounds the wasted work: total
// distance computations with speculation width k never exceed k times the
// serial run's, and are exactly equal at k = 1.

#include "core/speculation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/disc_algorithms.h"
#include "data/generators.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "server/protocol.h"
#include "util/parallel.h"

namespace disc {
namespace {

// ---------------------------------------------------------------------------
// Workloads and runners
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Dataset dataset;
  std::unique_ptr<DistanceMetric> metric;
  double radius;
};

Workload MakeWorkload(int index) {
  switch (index) {
    case 0:
      return {"uniform", MakeUniformDataset(600, 2, 11),
              MakeMetric(MetricKind::kEuclidean), 0.05};
    case 1:
      return {"clustered", MakeClusteredDataset(800, 2, 3),
              MakeMetric(MetricKind::kEuclidean), 0.05};
    default:
      return {"clustered_3d", MakeClusteredDataset(500, 3, 7),
              MakeMetric(MetricKind::kEuclidean), 0.12};
  }
}
constexpr int kNumWorkloads = 3;

const Algorithm kGreedyFamily[] = {
    Algorithm::kGreedy,    Algorithm::kGreedyWhite, Algorithm::kLazyGrey,
    Algorithm::kLazyWhite, Algorithm::kGreedyC,     Algorithm::kFastC,
};

// One full run on a fresh tree: build (through `pool`, which also exercises
// the parallel bulk load), then the algorithm with the given pool/width.
struct RunOutput {
  DiscResult result;
  MTree::ColorState state;
};

RunOutput RunOnFreshTree(const Workload& w, Algorithm algorithm,
                         ThreadPool* pool, size_t speculate) {
  MTree tree(w.dataset, *w.metric);
  EXPECT_TRUE(tree.Build(pool).ok());
  AlgorithmRunOptions options;
  options.pool = pool;
  options.speculate = speculate;
  RunOutput out;
  out.result = RunAlgorithm(&tree, algorithm, w.radius, options);
  out.state = tree.SaveColorState();
  return out;
}

void ExpectIdenticalRuns(const RunOutput& expected, const RunOutput& actual,
                         const std::string& label) {
  EXPECT_EQ(expected.result.solution, actual.result.solution) << label;
  EXPECT_TRUE(expected.result.stats == actual.result.stats)
      << label << ": node_accesses " << expected.result.stats.node_accesses
      << " vs " << actual.result.stats.node_accesses << ", distances "
      << expected.result.stats.distance_computations << " vs "
      << actual.result.stats.distance_computations;
  EXPECT_EQ(expected.state.colors, actual.state.colors) << label;
  EXPECT_EQ(expected.state.closest_black_dist, actual.state.closest_black_dist)
      << label;
}

// ---------------------------------------------------------------------------
// The determinism property: every greedy-family algorithm, every workload,
// byte-identical across thread counts (width resolves to the thread count,
// so this also sweeps widths 2/4/8 against the serial width-1 baseline).
// ---------------------------------------------------------------------------

class SpeculationDeterminismTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {};

TEST_P(SpeculationDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  auto [algorithm, workload_index] = GetParam();
  Workload w = MakeWorkload(workload_index);
  RunOutput serial = RunOnFreshTree(w, algorithm, nullptr, /*speculate=*/0);
  ASSERT_FALSE(serial.result.solution.empty());
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    RunOutput parallel = RunOnFreshTree(w, algorithm, &pool, /*speculate=*/0);
    ExpectIdenticalRuns(serial, parallel,
                        std::string(AlgorithmToString(algorithm)) + "/" +
                            w.name + " threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    GreedyFamilyAllWorkloads, SpeculationDeterminismTest,
    ::testing::Combine(::testing::ValuesIn(kGreedyFamily),
                       ::testing::Range(0, kNumWorkloads)),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, int>>& param) {
      std::string name = AlgorithmToString(std::get<0>(param.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(param.param));
    });

// Adversarial widths: 0 (auto), 1 (machinery disabled), a mid width, the
// candidate count, and width far beyond the number of candidates. All must
// reproduce the serial run byte for byte.
TEST(SpeculationAdversarialWidthTest, AnyWidthMatchesSerial) {
  Workload w = MakeWorkload(1);
  const size_t n = w.dataset.size();
  for (Algorithm algorithm : {Algorithm::kGreedy, Algorithm::kFastC}) {
    RunOutput serial = RunOnFreshTree(w, algorithm, nullptr, /*speculate=*/1);
    for (size_t width : {size_t{0}, size_t{1}, size_t{3}, n, n + 17}) {
      // Width > 1 with a null pool evaluates the batch sequentially with
      // the same counters; with a pool, concurrently. Both must match.
      RunOutput sequential = RunOnFreshTree(w, algorithm, nullptr, width);
      ThreadPool pool(4);
      RunOutput parallel = RunOnFreshTree(w, algorithm, &pool, width);
      const std::string label = std::string(AlgorithmToString(algorithm)) +
                                " width=" + std::to_string(width);
      ExpectIdenticalRuns(serial, sequential, label + " (no pool)");
      ExpectIdenticalRuns(serial, parallel, label + " (pool)");
      // Width 0 is the auto setting and resolves per pool (1 without, the
      // thread count with), so only explicit widths pin the counters.
      if (width != 0) {
        EXPECT_TRUE(sequential.result.speculation ==
                    parallel.result.speculation)
            << label << ": counters must not depend on the thread count";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Counter determinism and the pinned invalidation rate
// ---------------------------------------------------------------------------

// The counters are a pure function of (workload, width): any thread count —
// including none — produces the same batches/evaluated/committed/discarded.
TEST(SpeculationCountersTest, IndependentOfThreadCount) {
  Workload w = MakeWorkload(0);
  for (Algorithm algorithm : kGreedyFamily) {
    RunOutput reference =
        RunOnFreshTree(w, algorithm, nullptr, /*speculate=*/4);
    for (size_t threads : {2u, 4u, 8u}) {
      ThreadPool pool(threads);
      RunOutput run = RunOnFreshTree(w, algorithm, &pool, /*speculate=*/4);
      EXPECT_TRUE(reference.result.speculation == run.result.speculation)
          << AlgorithmToString(algorithm) << " threads=" << threads;
    }
  }
}

// Structural invariants of the counters, against every workload:
//  * every evaluation is eventually committed or discarded;
//  * Greedy-DisC evaluates the batch with the top candidate assumed black,
//    so the first take after every prefetch commits: committed >= batches
//    (the liveness half of the contract — speculation can never be pure
//    overhead);
//  * width 1 never speculates at all.
TEST(SpeculationCountersTest, EvaluationsAreAccountedFor) {
  for (int i = 0; i < kNumWorkloads; ++i) {
    Workload w = MakeWorkload(i);
    for (Algorithm algorithm : kGreedyFamily) {
      RunOutput run = RunOnFreshTree(w, algorithm, nullptr, /*speculate=*/4);
      const SpeculationStats& s = run.result.speculation;
      EXPECT_EQ(s.evaluated, s.committed + s.discarded)
          << AlgorithmToString(algorithm) << "/" << w.name;
      EXPECT_GE(s.committed, s.batches)
          << AlgorithmToString(algorithm) << "/" << w.name;

      RunOutput serial = RunOnFreshTree(w, algorithm, nullptr, /*speculate=*/1);
      EXPECT_TRUE(serial.result.speculation == SpeculationStats{})
          << AlgorithmToString(algorithm) << "/" << w.name
          << ": width 1 must disable the machinery";
    }
  }
}

// The pinned invalidation rate: exact counter values for one fixed
// (workload, width). If speculation silently degenerates — a refactor that
// stops committing (discarded balloons), stops invalidating (the validity
// check went vacuous), or stops batching — these numbers move and the test
// fails. Update them only with an explanation of why the schedule changed.
TEST(SpeculationCountersTest, PinnedCountersOnFixedWorkload) {
  Workload w = MakeWorkload(1);  // clustered n=800 seed=3 r=0.05
  RunOutput run =
      RunOnFreshTree(w, Algorithm::kGreedy, nullptr, /*speculate=*/4);
  const SpeculationStats& s = run.result.speculation;
  EXPECT_EQ(s.batches, 26u);
  EXPECT_EQ(s.evaluated, 102u);
  EXPECT_EQ(s.committed, 36u);
  EXPECT_EQ(s.discarded, 66u);
  // The rate itself, spelled out: every batch commits its first take
  // (liveness), some batches carry further than that (speculation is not
  // degenerating into one guaranteed hit per round), and the workload
  // genuinely exercises invalidation.
  EXPECT_GT(s.committed, s.batches)
      << "speculation stopped carrying across steps";
  EXPECT_GT(s.discarded, 0u) << "this workload must exercise invalidation";
}

// ---------------------------------------------------------------------------
// Wasted-work bound, measured at the metric (every distance the index
// computes, speculative or not, flows through DistanceMetric::Distance).
// ---------------------------------------------------------------------------

class CountingMetric final : public DistanceMetric {
 public:
  explicit CountingMetric(const DistanceMetric& inner) : inner_(inner) {}

  double Distance(const Point& a, const Point& b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Distance(a, b);
  }
  MetricKind kind() const override { return inner_.kind(); }

  uint64_t calls() const { return calls_.load(); }
  void Reset() { calls_.store(0); }

 private:
  const DistanceMetric& inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

// Speculation wastes at most one batch per serial fallback, so the total
// distance computations of a width-k run are bounded by k times the serial
// run's — and width 1 is exactly the serial run (no speculative machinery,
// no extra calls at all).
TEST(SpeculationWasteBoundTest, DistanceCallsBoundedByWidthTimesSerial) {
  Dataset dataset = MakeClusteredDataset(800, 2, 3);
  EuclideanMetric euclid;
  const double radius = 0.05;
  for (Algorithm algorithm : {Algorithm::kGreedy, Algorithm::kGreedyC}) {
    auto measure = [&](ThreadPool* pool, size_t speculate) -> uint64_t {
      CountingMetric metric(euclid);
      MTree tree(dataset, metric);
      EXPECT_TRUE(tree.Build(pool).ok());
      metric.Reset();  // construction costs are out of scope for the bound
      AlgorithmRunOptions options;
      options.pool = pool;
      options.speculate = speculate;
      RunAlgorithm(&tree, algorithm, radius, options);
      return metric.calls();
    };

    const uint64_t serial_calls = measure(nullptr, /*speculate=*/1);
    ASSERT_GT(serial_calls, 0u);

    const uint64_t width1_calls = measure(nullptr, /*speculate=*/0);
    EXPECT_EQ(width1_calls, serial_calls)
        << AlgorithmToString(algorithm)
        << ": width 1 must make exactly the serial run's distance calls";

    constexpr size_t kWidth = 4;
    ThreadPool pool(kWidth);
    const uint64_t spec_calls = measure(&pool, kWidth);
    EXPECT_LE(spec_calls, serial_calls * kWidth)
        << AlgorithmToString(algorithm)
        << ": speculative waste exceeded one batch per serial fallback";
  }
}

// ---------------------------------------------------------------------------
// Wire-level identity: a threaded engine serves byte-identical response
// lines (solution, stats, radius — everything but wall time). Speculation
// counters never appear on the wire.
// ---------------------------------------------------------------------------

TEST(SpeculationWireTest, ResponseLinesIdenticalAcrossEngineThreads) {
  auto run_engine = [](size_t threads) -> std::vector<std::string> {
    EngineConfig config;
    config.dataset = DatasetSpec::Clustered(800, 2, 3);
    config.threads = threads;
    auto engine = DiscEngine::Create(std::move(config));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<std::string> lines;
    for (Algorithm algorithm :
         {Algorithm::kGreedy, Algorithm::kLazyWhite, Algorithm::kFastC}) {
      DiversifyRequest request;
      request.algorithm = algorithm;
      request.radius = 0.05;
      auto response = (*engine)->Diversify(request);
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      lines.push_back(SerializeDiversifyResponse(Verb::kDiversify, *response,
                                                 /*include_wall_ms=*/false));
    }
    return lines;
  };
  const std::vector<std::string> serial = run_engine(1);
  for (size_t threads : {2u, 4u}) {
    EXPECT_EQ(serial, run_engine(threads)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace disc
