// A small fixed-size thread pool and deterministic data-parallel loops.
//
// Every DisC hot pass dominated by the r-neighborhood computation —
// NeighborhoodGraph construction, the engine's per-radius neighborhood
// counts, Greedy-DisC's initial counting pass, the session manager's engine
// warm-up — is an embarrassingly parallel fan-out over read-only state.
// This header provides the one threading primitive those passes share,
// built around a determinism contract:
//
//   * Work is split into chunks by a pure function of (begin, end, grain) —
//     never of the thread count — so the decomposition is identical for 1,
//     4, or 64 threads.
//   * Chunks execute on arbitrary workers, but reductions consume per-chunk
//     results in ascending chunk order on the calling thread
//     (ParallelOrderedReduce), so order-sensitive merges (floating-point
//     sums, list appends) are byte-identical to the serial loop.
//   * Work counters are results too: a chunk passes its own AccessStats
//     to every M-tree call as the trailing sink argument (mtree/mtree.h),
//     and the caller adds the sinks to the tree's stats() in chunk order.
//
// ParallelFor and ParallelOrderedReduce run the chunks in ascending order on
// the calling thread for a null or 1-thread pool (and for a single chunk),
// so every fan-out is one call at any thread count and no serial copy
// remains anywhere: the neighborhood passes (the adjacency builders,
// NeighborBackend::BuildNeighborhoods, the M-tree's neighbor-count pass,
// the bulk loader's nearest-seed assignment) and the per-step fan-outs of
// the greedy selection loops (core/internal.h: the maintenance queries,
// the white-style losses, the speculative prefetch).

#ifndef DISC_UTIL_PARALLEL_H_
#define DISC_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace disc {

/// Worker count when the caller does not specify one: the hardware
/// concurrency, and at least 1 (std::thread::hardware_concurrency may
/// return 0 on exotic platforms).
size_t DefaultThreads();

/// A fixed-size pool of `threads` workers (the calling thread counts as one,
/// so `threads - 1` std::threads are spawned; `threads <= 1` spawns none and
/// Run degenerates to a serial loop). Workers persist across Run calls —
/// construction cost is paid once per pool, not per pass.
///
/// Thread safety: Run may be called from any thread, but calls are
/// serialized internally (one fan-out at a time per pool). The pool must
/// outlive every Run call; destruction joins all workers.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t threads() const { return threads_; }

  /// Runs task(index) exactly once for every index in [0, count),
  /// distributing indexes dynamically across the workers plus the calling
  /// thread, and returns when all of them finished. Tasks must not throw.
  void Run(size_t count, const std::function<void(size_t)>& task);

 private:
  void WorkerLoop();
  /// Claims and executes task indexes until none remain.
  void Drain();

  const size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex run_mutex_;  // serializes concurrent Run calls

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;  // bumped once per Run; wakes the workers
  size_t busy_workers_ = 0;  // workers still draining this generation
  bool stopping_ = false;

  const std::function<void(size_t)>* task_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
};

/// A contiguous half-open index range.
struct ChunkRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Number of chunks [begin, end) decomposes into at the given grain: 0 for
/// an empty range, otherwise ceil((end - begin) / grain). Grain 0 is
/// treated as 1. A pure function of its arguments — the thread count never
/// participates, which is what makes ordered reductions deterministic.
size_t NumChunks(size_t begin, size_t end, size_t grain);

/// The `index`-th chunk of the decomposition NumChunks describes.
ChunkRange Chunk(size_t begin, size_t end, size_t grain, size_t index);

/// A grain that yields roughly 8 chunks per worker of `pool` (dynamic
/// distribution then absorbs per-chunk work imbalance), clamped to
/// [1, 1024]. A null pool counts as one worker.
size_t RecommendedGrain(size_t n, const ThreadPool* pool);

/// Runs body(chunk_begin, chunk_end) for every chunk of [begin, end).
/// With a null pool or one thread the chunks run serially in ascending
/// order on the calling thread; otherwise they are distributed across the
/// pool. Chunks must be independent (no ordering guarantee while parallel).
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// The ordered-reduction primitive: produce(chunk_begin, chunk_end) runs
/// per chunk (in parallel when the pool has more than one thread), then
/// consume(result) runs on the calling thread in ascending chunk order —
/// the same order the serial loop would produce. Reductions that are
/// order-sensitive (floating-point accumulation, appending to a shared
/// vector, summing per-thread AccessStats into a tree) therefore give
/// byte-identical results for every thread count.
template <typename T>
void ParallelOrderedReduce(ThreadPool* pool, size_t begin, size_t end,
                           size_t grain,
                           const std::function<T(size_t, size_t)>& produce,
                           const std::function<void(T&)>& consume) {
  const size_t chunks = NumChunks(begin, end, grain);
  if (pool == nullptr || pool->threads() <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) {
      ChunkRange range = Chunk(begin, end, grain, c);
      T result = produce(range.begin, range.end);
      consume(result);
    }
    return;
  }
  std::vector<T> results(chunks);
  pool->Run(chunks, [&](size_t c) {
    ChunkRange range = Chunk(begin, end, grain, c);
    results[c] = produce(range.begin, range.end);
  });
  for (T& result : results) consume(result);
}

}  // namespace disc

#endif  // DISC_UTIL_PARALLEL_H_
