#include "core/speculation.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace disc {

size_t ResolveSpeculationWidth(size_t speculate, ThreadPool* pool) {
  if (speculate != 0) return speculate;
  return pool == nullptr ? 1 : pool->threads();
}

SelectionSpeculator::SelectionSpeculator(MTree* tree, double radius,
                                         QueryFilter filter, bool pruned,
                                         QueryKind kind, size_t width,
                                         ThreadPool* pool)
    : tree_(tree),
      radius_(radius),
      filter_(filter),
      pruned_(pruned),
      kind_(kind),
      width_(width),
      pool_(pool) {}

void SelectionSpeculator::Query(ObjectId center, std::vector<Neighbor>* out,
                                MTree::QueryTrace* trace,
                                AccessStats* sink) const {
  if (kind_ == QueryKind::kBottomUp) {
    tree_->RangeQueryBottomUp(center, radius_, filter_, pruned_,
                              /*stop_at_grey=*/true, out, trace, sink);
  } else {
    tree_->RangeQueryAround(center, radius_, filter_, pruned_, out, trace,
                            sink);
  }
}

void SelectionSpeculator::MaybePrefetch(const IndexedMaxHeap& heap) {
  if (width_ <= 1 || !cache_.empty() || heap.empty()) return;
  const std::vector<size_t> candidates = heap.TopK(width_);
  cache_.resize(candidates.size());
  ++stats_.batches;
  stats_.evaluated += candidates.size();
  // Which queries run — and therefore every counter — is fixed by the batch;
  // the pool only decides how many run at once. Each evaluation accounts to
  // its entry's private sink, so nothing touches the tree's stats until a
  // commit publishes exactly one entry's cost.
  ParallelFor(pool_, 0, candidates.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Entry& entry = cache_[i];
      entry.center = static_cast<ObjectId>(candidates[i]);
      Query(entry.center, &entry.found, &entry.trace, &entry.cost);
    }
  });
}

void SelectionSpeculator::Take(ObjectId center, std::vector<Neighbor>* out) {
  for (size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].center != center) continue;
    Entry entry = std::move(cache_[i]);
    cache_.erase(cache_.begin() + static_cast<ptrdiff_t>(i));
    if (tree_->SpeculationValid(entry.trace)) {
      ++stats_.committed;
      tree_->stats() += entry.cost;
      *out = std::move(entry.found);
      return;
    }
    // Invalidated: the snapshot diverged from the live colors. The whole
    // batch shares that snapshot, so later entries are suspect too — flush
    // rather than re-validating one by one (keeps the waste bound at one
    // batch per serial fallback).
    ++stats_.discarded;
    break;
  }
  Flush();
  Query(center, out, /*trace=*/nullptr, /*sink=*/nullptr);
}

void SelectionSpeculator::Flush() {
  stats_.discarded += cache_.size();
  cache_.clear();
}

SpeculationStats SelectionSpeculator::Finish() {
  Flush();
  return stats_;
}

}  // namespace disc
