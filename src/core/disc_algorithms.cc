#include "core/disc_algorithms.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/internal.h"
#include "core/speculation.h"
#include "util/indexed_heap.h"
#include "util/parallel.h"
#include "util/status.h"

namespace disc {

const char* GreedyVariantToString(GreedyVariant variant) {
  switch (variant) {
    case GreedyVariant::kGrey:
      return "grey";
    case GreedyVariant::kWhite:
      return "white";
    case GreedyVariant::kLazyGrey:
      return "lazy-grey";
    case GreedyVariant::kLazyWhite:
      return "lazy-white";
  }
  return "unknown";
}

const char* AlgorithmToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return "basic";
    case Algorithm::kGreedy:
      return "greedy";
    case Algorithm::kGreedyWhite:
      return "greedy-white";
    case Algorithm::kLazyGrey:
      return "lazy-grey";
    case Algorithm::kLazyWhite:
      return "lazy-white";
    case Algorithm::kGreedyC:
      return "greedy-c";
    case Algorithm::kFastC:
      return "fast-c";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm algorithm :
       {Algorithm::kBasic, Algorithm::kGreedy, Algorithm::kGreedyWhite,
        Algorithm::kLazyGrey, Algorithm::kLazyWhite, Algorithm::kGreedyC,
        Algorithm::kFastC}) {
    if (name == AlgorithmToString(algorithm)) return algorithm;
  }
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (want basic|greedy|greedy-white|lazy-grey|lazy-white|greedy-c|"
      "fast-c)");
}

bool IsDiscFamily(Algorithm algorithm) {
  return algorithm != Algorithm::kGreedyC && algorithm != Algorithm::kFastC;
}

bool AlgorithmUsesNeighborCounts(Algorithm algorithm) {
  return algorithm != Algorithm::kBasic;
}

namespace {

DiscResult RunGreedy(MTree* tree, double radius, GreedyVariant variant,
                     const AlgorithmRunOptions& options) {
  GreedyDiscOptions greedy;
  greedy.variant = variant;
  greedy.pruned = options.pruned;
  greedy.initial_counts = options.initial_counts;
  greedy.pool = options.pool;
  greedy.speculate = options.speculate;
  return GreedyDisc(tree, radius, greedy);
}

}  // namespace

DiscResult RunAlgorithm(MTree* tree, Algorithm algorithm, double radius,
                        const AlgorithmRunOptions& options) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return BasicDisc(tree, radius, options.pruned);
    case Algorithm::kGreedy:
      return RunGreedy(tree, radius, GreedyVariant::kGrey, options);
    case Algorithm::kGreedyWhite:
      return RunGreedy(tree, radius, GreedyVariant::kWhite, options);
    case Algorithm::kLazyGrey:
      return RunGreedy(tree, radius, GreedyVariant::kLazyGrey, options);
    case Algorithm::kLazyWhite:
      return RunGreedy(tree, radius, GreedyVariant::kLazyWhite, options);
    case Algorithm::kGreedyC:
      return GreedyC(tree, radius, options.initial_counts, options.pool,
                     options.speculate);
    case Algorithm::kFastC:
      return FastC(tree, radius, options.initial_counts, options.pool,
                   options.speculate);
  }
  return DiscResult{};
}

DiscResult BasicDisc(MTree* tree, double radius, bool pruned) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  // Pruned runs may skip already-grey neighbors, leaving their closest-black
  // distances incomplete; unpruned runs visit every neighbor and keep them
  // exact (see MTree::RecomputeClosestBlackDistances).
  const QueryFilter filter =
      pruned ? QueryFilter::kWhiteOnly : QueryFilter::kAll;

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found;
  tree->ScanLeaves(/*skip_grey_leaves=*/pruned, [&](ObjectId id) {
    if (tree->color(id) != Color::kWhite) return;
    tree->SetColor(id, Color::kBlack);
    solution.push_back(id);
    found.clear();
    tree->RangeQueryAround(id, radius, filter, pruned, &found);
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }
  });
  return scope.Finish(std::move(solution));
}

namespace internal {

void OrderedNeighborhoods::Run(MTree* tree, ThreadPool* pool,
                               const std::vector<ObjectId>& centers,
                               const Query& query, const Apply& apply) {
  // A step that greys hundreds of objects would otherwise hold megabytes of
  // neighbor lists before applying the first; blocks keep them in cache.
  constexpr size_t kBlock = 64;
  hoods_.resize(kBlock);
  for (size_t first = 0; first < centers.size(); first += kBlock) {
    const size_t last = std::min(centers.size(), first + kBlock);
    ParallelFor(pool, first, last, 1, [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        Hood& hood = hoods_[j - first];
        hood.found.clear();
        hood.cost = AccessStats{};
        query(centers[j], &hood.found, &hood.cost);
      }
    });
    for (size_t j = first; j < last; ++j) {
      tree->stats() += hoods_[j - first].cost;
      apply(j, hoods_[j - first].found);
    }
  }
}

void GreedySelect(MTree* tree, IndexedMaxHeap* heap,
                  SelectionSpeculator* select, const GreedyUpdate& update,
                  ThreadPool* pool, std::vector<ObjectId>* solution) {
  // A candidate is a white object still waiting in the heap. Heap
  // membership never changes while an update phase runs (Adjust moves
  // priorities only), so the workers may read it too.
  auto is_candidate = [&](ObjectId id) {
    return tree->color(id) == Color::kWhite && heap->contains(id);
  };
  std::vector<Neighbor> found, update_found;
  std::vector<ObjectId> newly_grey;
  OrderedNeighborhoods grey_updates;
  while (!heap->empty()) {
    select->MaybePrefetch(*heap);
    // The heap holds exactly the white candidates, so the top is the white
    // object with the largest (possibly stale, for lazy variants) count.
    const ObjectId pi = static_cast<ObjectId>(heap->PopTop());
    assert(tree->color(pi) == Color::kWhite);
    tree->SetColor(pi, Color::kBlack);
    solution->push_back(pi);

    found.clear();
    select->Take(pi, &found);
    newly_grey.clear();
    for (const Neighbor& nb : found) {
      if (is_candidate(nb.id)) {
        tree->SetColor(nb.id, Color::kGrey);
        newly_grey.push_back(nb.id);
        heap->Remove(nb.id);
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }

    if (!update.white_style) {
      // One query per newly-grey object: its white neighbors lost one white
      // neighborhood member.
      grey_updates.Run(
          tree, pool, newly_grey,
          [&](ObjectId pj, std::vector<Neighbor>* out, AccessStats* sink) {
            tree->RangeQueryAround(pj, update.radius, update.filter,
                                   update.pruned, out, /*trace=*/nullptr, sink);
          },
          [&](size_t, const std::vector<Neighbor>& hood) {
            for (const Neighbor& nb : hood) {
              if (is_candidate(nb.id)) heap->Adjust(nb.id, -1);
            }
          });
      continue;
    }
    // White-style: only candidates within the update radius of pi can have
    // lost white neighbors. One query retrieves them; the per-object loss is
    // counted against the newly-grey list with plain distance computations
    // (fanned out over the retrieved candidates, applied in result order).
    update_found.clear();
    tree->RangeQueryAround(pi, update.radius, update.filter, update.pruned,
                           &update_found);
    struct LossResult {
      std::vector<std::pair<ObjectId, int64_t>> lost;
      AccessStats cost;
    };
    ParallelOrderedReduce<LossResult>(
        pool, 0, update_found.size(),
        RecommendedGrain(update_found.size(), pool),
        [&](size_t chunk_begin, size_t chunk_end) {
          LossResult r;
          for (size_t j = chunk_begin; j < chunk_end; ++j) {
            const ObjectId id = update_found[j].id;
            if (!is_candidate(id)) continue;
            int64_t lost = 0;
            for (ObjectId pj : newly_grey) {
              if (tree->Distance(id, pj, &r.cost) <= update.loss_radius) {
                ++lost;
              }
            }
            if (lost > 0) r.lost.emplace_back(id, lost);
          }
          return r;
        },
        [&](LossResult& r) {
          tree->stats() += r.cost;
          for (const auto& [id, lost] : r.lost) heap->Adjust(id, -lost);
        });
  }
}

}  // namespace internal

DiscResult GreedyDisc(MTree* tree, double radius,
                      const GreedyDiscOptions& options) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  const size_t n = tree->size();
  const QueryFilter filter =
      options.pruned ? QueryFilter::kWhiteOnly : QueryFilter::kAll;

  // L': every (white) object keyed by its white-neighborhood size.
  std::vector<uint32_t> counts;
  if (options.initial_counts != nullptr) {
    assert(options.initial_counts->size() == n);
    counts = *options.initial_counts;
  } else {
    tree->ComputeNeighborCountsPostBuild(radius, &counts, options.pool);
  }
  IndexedMaxHeap heap(n);
  for (ObjectId id = 0; id < n; ++id) {
    heap.Push(id, counts[id]);
  }

  // Update radius for neighborhood-size maintenance: the lazy variants
  // deliberately use a smaller radius, leaving distant counts stale (§6).
  internal::GreedyUpdate update{radius, filter, options.pruned,
                                /*white_style=*/false, radius};
  switch (options.variant) {
    case GreedyVariant::kGrey:
      break;
    case GreedyVariant::kLazyGrey:
      update.radius = radius / 2.0;
      break;
    case GreedyVariant::kWhite:
      update.radius = 2.0 * radius;
      update.white_style = true;
      break;
    case GreedyVariant::kLazyWhite:
      update.radius = 1.5 * radius;
      update.white_style = true;
      break;
  }

  // Speculation: evaluate the heap's next few candidates' neighborhoods
  // concurrently against the current colors, commit only evaluations whose
  // traces still validate when the candidate is actually popped. Byte-
  // identical to the serial loop at any (width, thread count).
  const size_t width = ResolveSpeculationWidth(options.speculate, options.pool);
  SelectionSpeculator speculator(tree, radius, filter, options.pruned,
                                 SelectionSpeculator::QueryKind::kAround,
                                 width, options.pool);
  std::vector<ObjectId> solution;
  internal::GreedySelect(tree, &heap, &speculator, update, options.pool,
                         &solution);
  DiscResult result = scope.Finish(std::move(solution));
  result.speculation = speculator.Finish();
  return result;
}

}  // namespace disc
