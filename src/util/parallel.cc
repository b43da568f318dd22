#include "util/parallel.h"

#include <algorithm>
#include <cstddef>

namespace disc {

size_t DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t threads) : threads_(std::max<size_t>(1, threads)) {
  workers_.reserve(threads_ - 1);
  for (size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::Run(size_t count, const std::function<void(size_t)>& task) {
  if (count == 0) return;
  if (workers_.empty()) {  // threads_ == 1: plain serial loop
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    busy_workers_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  Drain();  // the calling thread participates
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return busy_workers_ == 0; });
    task_ = nullptr;
  }
}

void ThreadPool::Drain() {
  while (true) {
    const size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count_) return;
    (*task_)(index);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    lock.unlock();
    Drain();
    lock.lock();
    if (--busy_workers_ == 0) done_cv_.notify_all();
  }
}

size_t NumChunks(size_t begin, size_t end, size_t grain) {
  if (end <= begin) return 0;
  const size_t n = end - begin;
  const size_t g = std::max<size_t>(1, grain);
  return (n + g - 1) / g;
}

ChunkRange Chunk(size_t begin, size_t end, size_t grain, size_t index) {
  const size_t g = std::max<size_t>(1, grain);
  ChunkRange range;
  range.begin = std::min(end, begin + index * g);
  range.end = std::min(end, range.begin + g);
  return range;
}

size_t RecommendedGrain(size_t n, const ThreadPool* pool) {
  const size_t workers = pool == nullptr ? 1 : pool->threads();
  const size_t grain = n / (workers * 8);
  return std::clamp<size_t>(grain, 1, 1024);
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  const size_t chunks = NumChunks(begin, end, grain);
  if (pool == nullptr || pool->threads() <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) {
      ChunkRange range = Chunk(begin, end, grain, c);
      body(range.begin, range.end);
    }
    return;
  }
  pool->Run(chunks, [&](size_t c) {
    ChunkRange range = Chunk(begin, end, grain, c);
    body(range.begin, range.end);
  });
}

}  // namespace disc
