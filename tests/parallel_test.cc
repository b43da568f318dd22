// util/parallel.h: the thread pool and its determinism contract.
//
// The property all consumers rely on: ParallelFor / ParallelOrderedReduce
// over ANY (grain, thread count) — including adversarial grains (0-length
// ranges, grain 0, grain > n, single elements) — produce results identical
// to the serial loop, bit for bit. This suite also runs under TSan in CI
// (the pool is the substrate of every parallel pass in the tree).

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

namespace disc {
namespace {

TEST(DefaultThreadsTest, AtLeastOne) { EXPECT_GE(DefaultThreads(), 1u); }

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    for (size_t count : {0u, 1u, 3u, 8u, 100u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.threads(), threads);
      std::vector<std::atomic<int>> hits(count);
      pool.Run(count, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads, count " << count;
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossRuns) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.Run(50, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 50u * 49u / 2);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
  size_t calls = 0;
  pool.Run(5, [&](size_t) { ++calls; });  // serial: unsynchronized is fine
  EXPECT_EQ(calls, 5u);
}

// ---------------------------------------------------------------------------
// Chunk decomposition: a pure function of (begin, end, grain).
// ---------------------------------------------------------------------------

TEST(ChunkTest, EmptyRangeHasNoChunks) {
  EXPECT_EQ(NumChunks(5, 5, 4), 0u);
  EXPECT_EQ(NumChunks(7, 3, 4), 0u);  // inverted == empty
}

TEST(ChunkTest, GrainZeroBehavesAsOne) {
  EXPECT_EQ(NumChunks(0, 5, 0), 5u);
  ChunkRange range = Chunk(0, 5, 0, 3);
  EXPECT_EQ(range.begin, 3u);
  EXPECT_EQ(range.end, 4u);
}

TEST(ChunkTest, GrainLargerThanRangeIsOneChunk) {
  EXPECT_EQ(NumChunks(2, 9, 100), 1u);
  ChunkRange range = Chunk(2, 9, 100, 0);
  EXPECT_EQ(range.begin, 2u);
  EXPECT_EQ(range.end, 9u);
}

TEST(ChunkTest, ChunksTileTheRangeExactly) {
  for (size_t begin : {0u, 3u}) {
    for (size_t end : {begin, begin + 1, begin + 7, begin + 64}) {
      for (size_t grain : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
        const size_t chunks = NumChunks(begin, end, grain);
        size_t expect_next = begin;
        for (size_t c = 0; c < chunks; ++c) {
          ChunkRange range = Chunk(begin, end, grain, c);
          EXPECT_EQ(range.begin, expect_next);
          EXPECT_GT(range.end, range.begin);  // no empty chunks
          expect_next = range.end;
        }
        EXPECT_EQ(expect_next, end);
      }
    }
  }
}

TEST(ChunkTest, RecommendedGrainBounded) {
  ThreadPool one(1);
  ThreadPool four(4);
  EXPECT_GE(RecommendedGrain(0, &four), 1u);
  EXPECT_LE(RecommendedGrain(1u << 30, nullptr), 1024u);
  EXPECT_GE(RecommendedGrain(10000, &four), 1u);
  // A null pool is one worker: the same grain as a 1-thread pool.
  EXPECT_EQ(RecommendedGrain(4000, nullptr), RecommendedGrain(4000, &one));
  EXPECT_EQ(RecommendedGrain(4000, nullptr), 4000u / 8);
  EXPECT_EQ(RecommendedGrain(4000, &four), 4000u / 32);
}

// ---------------------------------------------------------------------------
// The determinism property: parallel == serial for adversarial shapes.
// ---------------------------------------------------------------------------

// Serial reference: what any (pool, grain) execution must reproduce.
std::vector<size_t> SerialVisit(size_t begin, size_t end) {
  std::vector<size_t> visited;
  for (size_t i = begin; i < end; ++i) visited.push_back(i);
  return visited;
}

TEST(ParallelForTest, CoversRangeForAdversarialGrains) {
  const struct {
    size_t begin, end;
  } kRanges[] = {{0, 0}, {0, 1}, {0, 2}, {5, 5}, {0, 97}, {13, 140}};
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const auto& range : kRanges) {
      for (size_t grain : {0u, 1u, 2u, 7u, 97u, 10000u}) {
        const size_t n = range.end - range.begin;
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(&pool, range.begin, range.end, grain,
                    [&](size_t chunk_begin, size_t chunk_end) {
                      ASSERT_LE(chunk_begin, chunk_end);
                      for (size_t i = chunk_begin; i < chunk_end; ++i) {
                        hits[i - range.begin].fetch_add(
                            1, std::memory_order_relaxed);
                      }
                    });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "range [" << range.begin << "," << range.end << ") grain "
              << grain << " threads " << threads;
        }
      }
    }
  }
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<size_t> visited;
  ParallelFor(nullptr, 3, 11, 3, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t i = chunk_begin; i < chunk_end; ++i) visited.push_back(i);
  });
  EXPECT_EQ(visited, SerialVisit(3, 11));
}

TEST(ParallelOrderedReduceTest, AppendsInChunkOrderForAnyThreadCount) {
  // The consume order (ascending chunks) makes appends deterministic:
  // every (threads, grain) must yield the serial sequence.
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (size_t grain : {0u, 1u, 3u, 7u, 50u, 1000u}) {
      std::vector<size_t> visited;
      ParallelOrderedReduce<std::vector<size_t>>(
          &pool, 0, 200, grain,
          [](size_t chunk_begin, size_t chunk_end) {
            std::vector<size_t> local;
            for (size_t i = chunk_begin; i < chunk_end; ++i) {
              local.push_back(i);
            }
            return local;
          },
          [&](std::vector<size_t>& local) {
            visited.insert(visited.end(), local.begin(), local.end());
          });
      ASSERT_EQ(visited, SerialVisit(0, 200))
          << "threads " << threads << " grain " << grain;
    }
  }
}

TEST(ParallelOrderedReduceTest, FloatingPointSumBitIdenticalAcrossThreads) {
  // Floating-point addition is not associative, so a reduction that merged
  // in completion order would drift across thread counts. The ordered
  // reduction must produce bit-identical sums because the chunk
  // decomposition and the merge order depend only on (begin, end, grain).
  auto chunked_sum = [](ThreadPool* pool, size_t grain) {
    double sum = 0.0;
    ParallelOrderedReduce<double>(
        pool, 0, 5000, grain,
        [](size_t chunk_begin, size_t chunk_end) {
          double local = 0.0;
          for (size_t i = chunk_begin; i < chunk_end; ++i) {
            local += 1.0 / (1.0 + static_cast<double>(i));
          }
          return local;
        },
        [&](double& local) { sum += local; });
    return sum;
  };

  for (size_t grain : {1u, 7u, 64u, 333u}) {
    const double serial = chunked_sum(nullptr, grain);
    for (size_t threads : {2u, 4u, 8u}) {
      ThreadPool pool(threads);
      const double parallel = chunked_sum(&pool, grain);
      // Exact bit equality, not EXPECT_DOUBLE_EQ: that is the contract.
      ASSERT_EQ(serial, parallel)
          << "grain " << grain << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace disc
