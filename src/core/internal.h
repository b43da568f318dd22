// Shared helpers for the core algorithm implementations. Internal header.

#ifndef DISC_CORE_INTERNAL_H_
#define DISC_CORE_INTERNAL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/speculation.h"
#include "mtree/mtree.h"
#include "util/indexed_heap.h"
#include "util/stopwatch.h"

namespace disc {

class ThreadPool;  // util/parallel.h

namespace internal {

/// Captures the tree's access counters at construction and attributes the
/// delta (plus wall-clock) to the DiscResult produced at Finish().
class RunScope {
 public:
  explicit RunScope(MTree* tree) : tree_(tree), start_(tree->stats()) {}

  DiscResult Finish(std::vector<ObjectId> solution) {
    DiscResult result;
    result.solution = std::move(solution);
    result.stats = tree_->stats() - start_;
    result.wall_ms = watch_.ElapsedMillis();
    return result;
  }

 private:
  MTree* tree_;
  AccessStats start_;
  Stopwatch watch_;
};

/// The per-step maintenance fan-out of the greedy loops: query each
/// newly-grey center, apply in order. Run() issues
/// `query(center, &found, &cost)` for the centers as a ParallelFor across
/// `pool` (in order on the calling thread for a null or 1-thread pool); the
/// query must charge the tree's work to the private sink `cost`. Then, on
/// the calling thread, in `centers` order, it adds each cost to the tree's
/// stats() and calls `apply(index, found)`; it does so for
/// consecutive blocks of centers. Colors must not change between the
/// queries and the applies, which is what makes the result, the stats and
/// the heap identical at any thread count and block size. The neighbor
/// buffers persist across steps.
class OrderedNeighborhoods {
 public:
  using Query =
      std::function<void(ObjectId, std::vector<Neighbor>*, AccessStats*)>;
  using Apply = std::function<void(size_t, const std::vector<Neighbor>&)>;

  void Run(MTree* tree, ThreadPool* pool, const std::vector<ObjectId>& centers,
           const Query& query, const Apply& apply);

 private:
  // One cache line each: a worker updates its hood's counters and vector
  // header throughout a query, so neighboring hoods must not share a line.
  struct alignas(64) Hood {
    std::vector<Neighbor> found;
    AccessStats cost;
  };
  std::vector<Hood> hoods_;
};

/// How a greedy step refreshes the white-neighborhood sizes of the
/// candidates left in the heap (§5.1). Grey-style: one query around every
/// newly-grey object, and every candidate it finds loses one. White-style:
/// one query around the selected object, and every candidate it finds
/// loses one per newly-grey object within `loss_radius` of it.
struct GreedyUpdate {
  double radius = 0.0;
  QueryFilter filter = QueryFilter::kWhiteOnly;
  bool pruned = true;
  bool white_style = false;
  double loss_radius = 0.0;  // white-style only
};

/// The one Greedy-DisC selection loop: Greedy-DisC in all four variants
/// (§5.1), Greedy-Zoom-In (Algorithm 2) and the second pass of greedy
/// zooming-out (Algorithm 3) all run it. `heap` is pre-seeded with exactly
/// the white candidates, keyed by white-neighborhood size. Each step pops
/// the top, turns it black, appends it to `solution` and takes its
/// selection query from `select` (speculated for width > 1). Every found
/// neighbor observes the new black; a found neighbor turns grey iff it is
/// white and still in the heap, and leaves the heap. `update` then
/// refreshes the remaining candidates, fanned out across `pool` and
/// applied in canonical order, so the solution, the stats and the tree's
/// end state are identical at any thread count.
void GreedySelect(MTree* tree, IndexedMaxHeap* heap,
                  SelectionSpeculator* select, const GreedyUpdate& update,
                  ThreadPool* pool, std::vector<ObjectId>* solution);

}  // namespace internal
}  // namespace disc

#endif  // DISC_CORE_INTERNAL_H_
