// Greedy-C and Fast-C (§2.3, §5.1): coverage-only diversification.
//
// Both maintain the L' structure over white AND grey objects, keyed by the
// number of uncovered objects a candidate would newly cover: its white
// neighbors plus one if the candidate is itself still white. Greedy-C keeps
// every count exact (which forbids the grey-subtree pruning rule and makes
// it expensive); Fast-C accepts stale counts for grey objects in exchange
// for pruned, grey-stopping bottom-up queries.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/internal.h"
#include "core/speculation.h"
#include "util/indexed_heap.h"

namespace disc {

namespace {

// Shared implementation; `fast` toggles the Fast-C query strategy.
DiscResult CoverageGreedy(MTree* tree, double radius, bool fast,
                          const std::vector<uint32_t>* initial_counts,
                          ThreadPool* pool, size_t speculate) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  const size_t n = tree->size();

  std::vector<uint32_t> counts;
  if (initial_counts != nullptr) {
    assert(initial_counts->size() == n);
    counts = *initial_counts;
  } else {
    tree->ComputeNeighborCountsPostBuild(radius, &counts, pool);
  }

  // Candidate priority = newly-covered objects = white neighbors + self bonus.
  // Initially everything is white, so the bonus is +1 everywhere; it keeps
  // the loop progressing (whenever whites remain, some candidate has
  // priority >= 1, and selecting it reduces the white population).
  IndexedMaxHeap heap(n);
  for (ObjectId id = 0; id < n; ++id) {
    heap.Push(id, static_cast<int64_t>(counts[id]) + 1);
  }

  // Selection queries re-measure a candidate's gain; Fast-C uses the
  // grey-stopping bottom-up search there, which exits almost immediately for
  // candidates whose region has gone grey. Greedy-C needs unfiltered queries
  // because grey candidates' counts must stay exact. The speculator mirrors
  // these queries for the heap's top candidates and commits cached results
  // whose traces still validate (Greedy-C's are color-independent and never
  // invalidate; Fast-C's grey-stopping climbs can).
  const size_t width = ResolveSpeculationWidth(speculate, pool);
  SelectionSpeculator speculator(
      tree, radius, fast ? QueryFilter::kWhiteOnly : QueryFilter::kAll,
      /*pruned=*/fast, fast ? SelectionSpeculator::QueryKind::kBottomUp
                            : SelectionSpeculator::QueryKind::kAround,
      width, pool);

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found;
  std::vector<ObjectId> newly_grey;
  internal::OrderedNeighborhoods updates;
  while (tree->white_count() > 0 && !heap.empty()) {
    speculator.MaybePrefetch(heap);
    ObjectId pi = heap.PopTop();
    const bool was_white = tree->color(pi) == Color::kWhite;

    found.clear();
    speculator.Take(pi, &found);
    newly_grey.clear();
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) newly_grey.push_back(nb.id);
    }

    // Fast-C's heap priorities go stale (it skips the per-covered-object
    // update queries), so re-validate lazily: the query above re-measures
    // the candidate's true gain; if it dropped well below the next-best
    // priority, push it back and try the new top instead. Selecting within
    // 2x of the best-known priority (rather than demanding the exact
    // maximum) keeps the pop count — and hence query count — low while
    // staying a constant-factor greedy step; this is where "similar sized
    // solutions at fewer accesses" comes from. With exact counts (Greedy-C)
    // the popped maximum is never stale and both branches are no-ops.
    int64_t fresh_gain =
        static_cast<int64_t>(newly_grey.size()) + (was_white ? 1 : 0);
    if (fresh_gain == 0) continue;  // covers nothing, and gains only shrink
    if (!heap.empty() && 2 * fresh_gain < heap.TopPriority()) {
      heap.Push(pi, fresh_gain);
      continue;
    }

    tree->SetColor(pi, Color::kBlack);
    solution.push_back(pi);
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }

    // pi left the white population: every remaining candidate that counted
    // pi as a white neighbor loses 1.
    if (was_white) {
      for (const Neighbor& nb : found) {
        if (heap.contains(nb.id)) heap.Adjust(nb.id, -1);
      }
    }
    // Each newly-grey object pj loses its own +1 bonus, and every candidate
    // counting pj as a white neighbor loses 1. The latter requires a range
    // query per covered object — the dominant cost of Greedy-C. Fast-C
    // replaces it with a one-access look at pj's own leaf (most affected
    // candidates are leaf-mates, by M-tree locality) and lets the lazy
    // re-validation above absorb the remaining staleness: this is where its
    // access savings come from. Colors and heap membership are fixed for the
    // rest of this step, so the queries fan out read-only; the heap
    // adjustments apply on the calling thread in newly-grey order.
    updates.Run(
        tree, pool, newly_grey,
        [&](ObjectId pj, std::vector<Neighbor>* out, AccessStats* sink) {
          if (fast) {
            tree->LeafMatesWithin(pj, radius, out, sink);
          } else {
            tree->RangeQueryAround(pj, radius, QueryFilter::kAll,
                                   /*pruned=*/false, out, /*trace=*/nullptr,
                                   sink);
          }
        },
        [&](size_t j, const std::vector<Neighbor>& hood) {
          if (heap.contains(newly_grey[j])) heap.Adjust(newly_grey[j], -1);
          for (const Neighbor& nb : hood) {
            if (heap.contains(nb.id)) heap.Adjust(nb.id, -1);
          }
        });
  }
  DiscResult result = scope.Finish(std::move(solution));
  result.speculation = speculator.Finish();
  return result;
}

}  // namespace

DiscResult GreedyC(MTree* tree, double radius,
                   const std::vector<uint32_t>* initial_counts,
                   ThreadPool* pool, size_t speculate) {
  return CoverageGreedy(tree, radius, /*fast=*/false, initial_counts, pool,
                        speculate);
}

DiscResult FastC(MTree* tree, double radius,
                 const std::vector<uint32_t>* initial_counts,
                 ThreadPool* pool, size_t speculate) {
  return CoverageGreedy(tree, radius, /*fast=*/true, initial_counts, pool,
                        speculate);
}

}  // namespace disc
