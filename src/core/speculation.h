// Speculative parallel candidate evaluation for the greedy selection loops.
//
// Greedy-DisC and Greedy-C/Fast-C are serial by nature: every selection runs
// a range query whose outcome depends on the color state the previous
// selection just mutated. The loop itself cannot fan out — but the *next few*
// selections are highly predictable (the heap's top-k candidates), and range
// queries are read-only. So the speculator evaluates the top-k candidates'
// neighborhoods concurrently against the current color snapshot, recording a
// QueryTrace of every color-dependent decision (mtree/mtree.h). When the
// loop actually pops a candidate, a cached evaluation whose trace still
// validates is committed — byte-identical, result and AccessStats both, to
// running the query at that moment — and anything invalidated by the
// intervening commits is discarded (and counted; wasted work never appears
// in the tree's stats).
//
// The contract, extending the util/parallel.h determinism rules:
//   * speculate only against snapshots — queries run on workers under
//     private stats sinks and never publish partial color state;
//   * commit only in canonical order — the caller's pop order, on the
//     calling thread, with validation against the live colors;
//   * the batch size (width), not the thread count, determines which
//     speculative queries run, so commit/discard counters are identical for
//     every thread count at a fixed width. The pool only decides how many
//     evaluate at once.
//
// Liveness: for Greedy-DisC the batch is evaluated with the top candidate
// assumed black (the algorithm recolors before querying), so the first take
// after every prefetch always validates; width = 1 degenerates to exactly
// the serial loop.

#ifndef DISC_CORE_SPECULATION_H_
#define DISC_CORE_SPECULATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mtree/mtree.h"
#include "util/indexed_heap.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// Outcome counters of one selection run's speculation. Deterministic for a
/// fixed (workload, width) — independent of the thread count — and never
/// part of the wire protocol or the engine's session fingerprint (width is
/// resolved from the thread budget by default, which IS allowed to differ
/// between byte-identical runs).
struct SpeculationStats {
  uint64_t batches = 0;    // prefetch rounds issued
  uint64_t evaluated = 0;  // speculative queries run
  uint64_t committed = 0;  // consumed with a still-valid trace
  uint64_t discarded = 0;  // invalidated, superseded, or never consumed

  SpeculationStats& operator+=(const SpeculationStats& other) {
    batches += other.batches;
    evaluated += other.evaluated;
    committed += other.committed;
    discarded += other.discarded;
    return *this;
  }

  bool operator==(const SpeculationStats& other) const {
    return batches == other.batches && evaluated == other.evaluated &&
           committed == other.committed && discarded == other.discarded;
  }
};

/// Resolves a speculation width knob: 0 (auto) takes the pool's thread
/// count, so serial engines keep the exact pre-speculation code path and
/// threaded engines speculate one candidate per worker. Any other value is
/// used as given — including widths > 1 with a null pool, where the batch
/// evaluates sequentially (same commits, same discards, no concurrency);
/// that is how a 1-thread run reproduces a 4-thread run's counters.
size_t ResolveSpeculationWidth(size_t speculate, ThreadPool* pool);

/// One selection loop's speculation state. Create per run; call
/// MaybePrefetch at the top of the loop (before PopTop) and Take in place of
/// the serial selection query. Take is byte-identical to the serial query —
/// same neighbors in the same order, same AccessStats charged to the tree —
/// at any (width, thread count).
class SelectionSpeculator {
 public:
  /// Which serial selection query is being mirrored.
  enum class QueryKind {
    /// RangeQueryAround. Greedy-DisC and the greedy zooms query after the
    /// candidate turned black, which the traced speculative query assumes
    /// (MTree::RangeQueryAround); Greedy-C queries kAll/unpruned before
    /// recoloring, where that assumption changes nothing, so its
    /// speculation never invalidates.
    kAround,
    /// Fast-C: grey-stopping bottom-up query, before recoloring.
    kBottomUp,
  };

  /// `width` is the resolved batch size (ResolveSpeculationWidth); <= 1
  /// disables the machinery entirely. `pool` may be null even for width > 1.
  SelectionSpeculator(MTree* tree, double radius, QueryFilter filter,
                      bool pruned, QueryKind kind, size_t width,
                      ThreadPool* pool);

  /// When the cache is empty, evaluates the heap's top `width` candidates
  /// against the current snapshot (concurrently when a pool is available).
  void MaybePrefetch(const IndexedMaxHeap& heap);

  /// The selection query for `center`: commits a still-valid cached
  /// evaluation, or flushes the cache and runs the serial query.
  void Take(ObjectId center, std::vector<Neighbor>* out);

  /// Discards whatever is still cached and returns the final counters.
  SpeculationStats Finish();

  const SpeculationStats& stats() const { return stats_; }

 private:
  struct Entry {
    ObjectId center = kInvalidObject;
    std::vector<Neighbor> found;
    MTree::QueryTrace trace;
    AccessStats cost;  // the query's private sink; added to stats() on commit
  };

  // The selection query for `center`, charged to `sink` (null: the
  // tree's stats()). With a trace it records every color-dependent decision
  // (kAround assumes the candidate black); with a null trace it is
  // the plain query the loop would run at that moment.
  void Query(ObjectId center, std::vector<Neighbor>* out,
             MTree::QueryTrace* trace, AccessStats* sink) const;
  void Flush();

  MTree* tree_;
  const double radius_;
  const QueryFilter filter_;
  const bool pruned_;
  const QueryKind kind_;
  const size_t width_;
  ThreadPool* pool_;

  std::vector<Entry> cache_;
  SpeculationStats stats_;
};

}  // namespace disc

#endif  // DISC_CORE_SPECULATION_H_
